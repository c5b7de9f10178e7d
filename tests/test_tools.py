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
