"""Running one pass of a workload, and the latency statistics over ops."""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class OpSpec:
    """One op of a schedule: its kind and plain-data arguments."""

    kind: str
    args: tuple = ()


@dataclass
class Outcome:
    """What one op returned or raised, how long it took, and its verdict."""

    spec: OpSpec
    seconds: float
    value: object = None
    error: Exception | None = None
    status: str = "ok"        # "ok", "refused" (a documented refusal) or "failed"
    reason: str = ""
    wrong: bool = False       # an answer the program presented as valid failed a check

    def fail(self, reason: str, *, wrong: bool = False) -> None:
        self.status = "failed"
        self.reason = f"{self.reason}; {reason}" if self.reason else reason
        self.wrong = self.wrong or wrong


@dataclass
class PassResult:
    seed: int
    wall: float
    outcomes: list[Outcome]
    checks: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(o.status == "failed" for o in self.outcomes)

    @property
    def refused(self) -> int:
        return sum(o.status == "refused" for o in self.outcomes)

    @property
    def wrong(self) -> int:
        return sum(o.wrong for o in self.outcomes)


def run_pass(workload, seed: int, rules: dict, recorder=None) -> PassResult:
    """Run every op of the workload's schedule at `seed`, then check outputs.

    Only the ops are timed; wall time runs from the first op's start to the
    last op's end.  Checks run afterwards, untimed (and untraced).
    """
    execute = workload.executor(rules)
    outcomes = []
    first = last = None
    for spec in workload.schedule(seed):
        span = recorder.op_span(spec.kind) if recorder else nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                value, error = execute(spec), None
            except Exception as exc:  # op boundary: a failed op is counted, the pass goes on
                value, error = None, exc
            t1 = time.perf_counter()
        first = t0 if first is None else first
        last = t1
        outcomes.append(Outcome(spec, t1 - t0, value, error))
        if error is not None:
            outcomes[-1].fail(f"{type(error).__name__}: {error}")
    with recorder.paused() if recorder else nullcontext():
        checks = workload.check(outcomes, rules)
    return PassResult(seed=seed, wall=last - first, outcomes=outcomes, checks=checks)


def pass_seed(seed: int, index: int) -> int:
    """Input seed of the index-th pass of a run: pass 0 uses the run's seed."""
    if index == 0:
        return seed
    state = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)
    return int(state[0])


# ---------------------------------------------------------------------------
# latency statistics

MIN_BEYOND = 10
LADDER = (50, 90, 99, Fraction("99.9"))


def _rank(p, n: int) -> int:
    """Nearest-rank index (1-based) of the p-th percentile of n samples."""
    return max(1, math.ceil(Fraction(p) * n / 100))


def percentile(samples, p) -> float:
    """Nearest-rank percentile; refuses when fewer than ten samples lie beyond it."""
    n = len(samples)
    beyond = n - _rank(p, n)
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{p} of {n} samples has {beyond} samples beyond it; "
                         f"at least {MIN_BEYOND} are needed")
    return float(sorted(samples)[_rank(p, n) - 1])


def highest_percentile(samples) -> tuple[float, float]:
    """(p, value) for the highest percentile of LADDER with ten samples beyond it."""
    n = len(samples)
    usable = [p for p in LADDER if n - _rank(p, n) >= MIN_BEYOND]
    if not usable:
        raise ValueError(f"{n} samples support no percentile with {MIN_BEYOND} beyond it")
    return float(usable[-1]), percentile(samples, usable[-1])
