"""Pure statistics of the benchmark: percentiles, rates, ledgers.

Nothing here touches the program under test, so every rule the
benchmark reports by is unit-tested in ``test_perfbench.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Percentiles a tail may be reported at, low to high.
TAIL_CANDIDATES = (50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5,
                   99.8, 99.9)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` values."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return float(ordered[_rank(len(ordered), q) - 1])


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return count - _rank(count, q)


def tail_percentile_for(count: int) -> float:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond.

    A workload fixes its tail percentile once, from the sample count its
    smallest fixed-rate phase yields at the configured run length.
    """
    best = TAIL_CANDIDATES[0]
    for q in TAIL_CANDIDATES:
        if beyond(count, q) >= MIN_BEYOND:
            best = q
    return best


@dataclass(frozen=True)
class Tail:
    """A tail latency with the evidence behind it.

    The samples, in time order, are cut into ``windows`` equal windows;
    ``value`` is the median over the windows of each window's ``q``
    percentile.  One window is the plain ``q`` percentile.  More windows
    keep a single host stall (which lands in one window) from setting
    the whole run's tail.
    """

    q: float
    value: float
    samples: int
    windows: int = 1

    @property
    def supported(self) -> bool:
        """True when every window has MIN_BEYOND samples beyond ``q``."""
        return beyond(self.samples // self.windows, self.q) >= MIN_BEYOND


def split(values, windows: int) -> list:
    """``values`` cut into ``windows`` contiguous, near-equal chunks."""
    n = len(values)
    return [values[k * n // windows:(k + 1) * n // windows]
            for k in range(windows)]


def tail(values, q: float, windows: int = 1) -> Tail:
    values = list(values)
    windows = max(1, min(windows, len(values)))
    per = [percentile(chunk, q) for chunk in split(values, windows)]
    return Tail(q=q, value=median(per), samples=len(values),
                windows=windows)


@dataclass
class PhaseLedger:
    """Outcome counts of one phase, as the load generator saw them.

    ``served`` counts every answer the program returned, ``wrong`` the
    answers among them that failed their output check, and ``dropped``
    the requests still unresolved when the phase's deadline passed.
    """

    offered: int = 0
    served: int = 0
    shed: int = 0
    timed_out: int = 0
    errored: int = 0
    wrong: int = 0
    dropped: int = 0

    @property
    def failed(self) -> int:
        return (self.shed + self.timed_out + self.errored + self.wrong
                + self.dropped)

    def add(self, other: "PhaseLedger") -> None:
        for name in ("offered", "served", "shed", "timed_out", "errored",
                     "wrong", "dropped"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def reconcile(ledger: PhaseLedger, delta: dict) -> list:
    """Where the generator's ledger and the broker's own disagree.

    ``delta`` is the change of ``ServeBroker.stats`` over the phase.
    Every offered request must have been admitted or rejected, every
    admitted one served, timed out or failed in its wave, and the
    generator must have seen the same outcomes.  Returns one line per
    disagreement (empty when the two balance).
    """
    rejected = delta["rejected_queue_full"] + delta["rejected_shutdown"]
    served = delta["zone_checks"] + delta["episode_steps"]
    problems = []
    if ledger.dropped:
        problems.append(f"{ledger.dropped} requests never resolved")
    if ledger.offered != delta["admitted"] + rejected:
        problems.append(f"offered {ledger.offered} != admitted "
                        f"{delta['admitted']} + rejected {rejected}")
    if delta["admitted"] != served + delta["timed_out"] + ledger.errored:
        problems.append(f"admitted {delta['admitted']} != served {served} "
                        f"+ timed out {delta['timed_out']} + errored "
                        f"{ledger.errored}")
    for name, mine, theirs in (("shed", ledger.shed, rejected),
                               ("served", ledger.served, served),
                               ("timed out", ledger.timed_out,
                                delta["timed_out"])):
        if mine != theirs:
            problems.append(f"{name}: generator {mine} != broker {theirs}")
    return problems


def failed_share(ledgers) -> float:
    """(shed + timed-out + errored + wrong + dropped) / attempted."""
    attempted = sum(led.offered for led in ledgers)
    if attempted == 0:
        raise ValueError("failed_share of no attempts")
    return sum(led.failed for led in ledgers) / attempted


def window_rate(times, lo: float, hi: float, window_s: float) -> float:
    """Median over whole ``window_s`` windows of [lo, hi) of the events
    per second in each; ``times`` are the events' completion times."""
    count = int((hi - lo) // window_s)
    if count < 1:
        raise ValueError("interval shorter than one window")
    per = [0] * count
    for t in times:
        k = int((t - lo) // window_s)
        if 0 <= k < count:
            per[k] += 1
    return median([n / window_s for n in per])
