"""Structured result record shared by every inequality/identity checker."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BoundReport", "SLACK_TOL"]

# how far below zero a slack may fall before a bound counts as violated
SLACK_TOL = 1e-3


@dataclass
class BoundReport:
    """Outcome of a bound or identity evaluation.

    slack is oriented so that slack >= 0 means the relation holds: for
    inequalities it is the signed margin, for identities it is minus the
    absolute relative error (so any mismatch shows as negative slack).
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    inputs: dict = field(default_factory=dict)
    method: dict = field(default_factory=dict)

    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL
