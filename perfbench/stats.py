"""Pure helpers: tail percentile, ratios with their base, the verdict gate."""

from __future__ import annotations

from typing import NamedTuple

DEFINITIVE = ("sat", "unsat")

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"


class Tail(NamedTuple):
    value: float
    percentile: float
    n: int
    beyond: int


def tail(samples: list[float], beyond: int = 10) -> Tail | None:
    """The highest percentile of `samples` with at least `beyond` samples
    above it, or None when that percentile would fall below the median."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * beyond:
        return None
    k = n - beyond - 1
    return Tail(xs[k], 100.0 * (k + 1) / n, n, beyond)


class Ratio(NamedTuple):
    num: float
    base: float

    @property
    def value(self) -> float | None:
        return self.num / self.base if self.base else None

    def __str__(self) -> str:
        if self.value is None:
            return "n/a (base 0)"
        return f"{self.value:.4f} ({self.num:g}/{self.base:g})"


def judge(verdict: str, expected: str) -> str:
    """decided, undecided or failed: a definitive verdict that contradicts
    the file's `% expect:` tag is a failure; unknown/timeout is undecided."""
    if verdict not in DEFINITIVE:
        return UNDECIDED
    if expected and verdict != expected:
        return FAILED
    return DECIDED
