import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402


def test_src_lines_is_the_wc_total():
    # the figure CI's line-count step prints: wc -l src/stable_info/*.py | tail -1
    files = sorted(str(p) for p in (ROOT / "src" / "stable_info").glob("*.py"))
    out = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    assert bench_record.src_lines(ROOT) == int(out.stdout.splitlines()[-1].split()[0])


def test_time_cli_counts_minor_page_faults(monkeypatch):
    # the second command writes every byte of 64 MB
    commands = {"noop": ["-c", "pass"], "alloc": ["-c", "b = b'x' * 2**26"]}
    monkeypatch.setattr(bench_record, "CLI_COMMANDS", commands)
    out, ok = bench_record.time_cli(ROOT, 2)
    assert ok
    for rec in out.values():
        faults = rec["minflt"]
        assert len(faults["values"]) == 2 and all(isinstance(v, int) and v > 0 for v in faults["values"])
        assert faults["q1"] <= faults["median"] <= faults["q3"]
    # 64 MB is 16,384 pages of 4 KB, or 32 huge pages of 2 MB
    assert out["alloc"]["minflt"]["median"] - out["noop"]["minflt"]["median"] >= 32


def test_time_cli_records_the_stdout_digest(monkeypatch):
    argv = ["-m", "stable_info.cli", "sum-bound", "--laws", "gaussian:1"]
    monkeypatch.setattr(bench_record, "CLI_COMMANDS", {"sum-bound": argv})
    out, ok = bench_record.time_cli(ROOT, 2)
    direct = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=bench_record.single_thread_env(ROOT),
        capture_output=True, check=True,
    )
    assert ok and direct.stdout.startswith(b"law,")
    assert out["sum-bound"]["stdout_sha256"] == hashlib.sha256(direct.stdout).hexdigest()


def test_time_cli_fails_on_stdout_that_differs_between_repeats(monkeypatch):
    commands = {"random": ["-c", "import os; print(os.urandom(8).hex())"]}
    monkeypatch.setattr(bench_record, "CLI_COMMANDS", commands)
    out, ok = bench_record.time_cli(ROOT, 2)
    assert not ok and out["random"]["stdout_sha256"] is None and out["random"]["exit_codes"] == [0, 0]


def test_src_is_compiled_before_the_first_run(tmp_path, monkeypatch):
    # a checkout of one module and one workload: when the first run
    # starts, the module's bytecode is on disk, though the environment
    # asks python to write none
    module = tmp_path / "src" / "stable_info" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text("X = 1\n")
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    compiled = []

    def bench_run(repo, workload, seconds, trace):
        compiled.append(Path(importlib.util.cache_from_source(str(module))).is_file())
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    monkeypatch.setattr(bench_record, "bench_run", bench_run)
    monkeypatch.setattr(bench_record, "time_cli", lambda repo, repeats: ({}, True))
    assert bench_record.main(["--label", "t", "--repo", str(tmp_path), "--runs", "1"]) == 0
    assert compiled == [True, True]
