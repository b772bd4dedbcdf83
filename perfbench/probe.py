"""Host calibration: the ``cal`` unit the benchmark gates time in.

One ``cal`` is the wall time of :func:`probe`, a fixed pure-Python workload
timed beside the solver.  Contention from other tenants of the machine slows
the probe and the solver together, so an op's duration divided by a probe
timed beside it cancels most of the host's swing.

The probe is a frozen miniature of the solver's two hottest loops: the
support peel's per-edge grouping of common neighbours
(``repro.kernel.reduce``: big-int masks, lowest-bit iteration, small dict and
list updates, one small object per edge) and a bitmask branch-and-bound
with per-value counts (``repro.kernel.search``).  Contention does not slow
every kind of instruction alike, so the closer the probe's mix is to the
solver's, the better it tracks.  On a 2-CPU container whose speed swung by
up to 1.7x between 18 s windows, the interquartile spread of seven
per-window median op times was, raw / divided by this probe: cold solve
0.15 / 0.05, warm search 0.26 / 0.05.  The peel alone gave 0.065 / 0.065,
the search alone 0.03 / 0.10, a 192-bit multiply loop 0.07 / 0.10.

The probe must never change: a change would redefine the unit and break
comparison with every earlier run.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

_VERTICES = 300
_DENSITY = 0.15
_COLORS = 40
_SEARCH_VERTICES = 110
_SEARCH_DENSITY = 0.45
#: ``setup_s`` is reported in reference seconds: set-up time in cal times
#: this fixed probe duration (the probe's time on the unloaded 2-CPU
#: container the benchmark was built on), so a set-up that ran while the
#: host was slow does not read as a regression.
REFERENCE_CAL_S = 0.036
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 3


def _graph():
    rng = random.Random(5)
    adjacency = [0] * _VERTICES
    attributes = [rng.randrange(2) for _ in range(_VERTICES)]
    colors = [rng.randrange(_COLORS) for _ in range(_VERTICES)]
    edges = []
    for u in range(_VERTICES):
        for v in range(u + 1, _VERTICES):
            if rng.random() < _DENSITY:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
                edges.append((u, v))
    return adjacency, attributes, colors, edges


_ADJACENCY, _ATTRIBUTES, _COLORS_OF, _EDGES = _graph()


def _search_graph():
    rng = random.Random(7)
    adjacency = [0] * _SEARCH_VERTICES
    for u in range(_SEARCH_VERTICES):
        for v in range(u + 1, _SEARCH_VERTICES):
            if rng.random() < _SEARCH_DENSITY:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    return adjacency, sum(1 << v for v in range(0, _SEARCH_VERTICES, 2))


_SEARCH_ADJACENCY, _SEARCH_MASK_A = _search_graph()


class _Groups:
    __slots__ = ("counts", "only_a", "only_b", "mixed")

    def __init__(self) -> None:
        self.counts: dict[int, list[int]] = {}
        self.only_a = self.only_b = self.mixed = 0


def _peel() -> int:
    groups = {}
    for u, v in _EDGES:
        common = _ADJACENCY[u] & _ADJACENCY[v]
        state = _Groups()
        counts = state.counts
        while common:
            low = common & -common
            w = low.bit_length() - 1
            common ^= low
            entry = counts.get(_COLORS_OF[w])
            if entry is None:
                counts[_COLORS_OF[w]] = entry = [0, 0]
            entry[_ATTRIBUTES[w]] += 1
        for entry in counts.values():
            if entry[0]:
                if entry[1]:
                    state.mixed += 1
                else:
                    state.only_a += 1
            else:
                state.only_b += 1
        groups[(u, v)] = state
    return len(groups)


def _search() -> int:
    """Largest clique with k=2 per value and gap <= 1, by bitmask branching."""
    adjacency = _SEARCH_ADJACENCY
    mask_a = _SEARCH_MASK_A
    best = [0]

    def expand(size: int, count_a: int, count_b: int, candidates: int) -> None:
        if size > best[0] and abs(count_a - count_b) <= 1 and min(count_a, count_b) >= 2:
            best[0] = size
        while candidates:
            left_a = (candidates & mask_a).bit_count()
            left_b = candidates.bit_count() - left_a
            if 2 * min(count_a + left_a, count_b + left_b) + 1 <= best[0]:
                return
            if size + left_a + left_b <= best[0]:
                return
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            if mask_a >> v & 1:
                expand(size + 1, count_a + 1, count_b, candidates & adjacency[v])
            else:
                expand(size + 1, count_a, count_b + 1, candidates & adjacency[v])

    expand(0, 0, 0, (1 << _SEARCH_VERTICES) - 1)
    return best[0]


def probe() -> float:
    """Seconds one run of the fixed probe takes right now.

    The cyclic garbage collector is paused for the probe: its allocations
    are all freed by reference counting, and a collection triggered inside
    it would traverse the caller's heap, whose size differs from workload to
    workload and op to op.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _peel()
        _search()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """The probes of one run.

    Each sample is the faster of two back-to-back probes: a single probe
    right after an op or a request sometimes ran 10-40% slow for a few
    milliseconds, far shorter than any op it calibrates.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def take(self) -> float:
        sample = min(probe(), probe())
        self.samples.append(sample)
        return sample

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def summary(self) -> dict:
        """``calib_s`` (median probe) and ``calib_spread`` (IQR over median).

        A run on a host whose speed swung shows it here, next to its numbers.
        """
        samples = sorted(self.samples)
        if len(samples) >= 4:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / self.median
        else:
            spread = (samples[-1] - samples[0]) / self.median
        return {"calib_s": self.median, "calib_spread": spread, "probes": len(samples)}


class _Steps:
    """The ``mark`` callback of one timed set-up.

    Each call ends a step: it takes a calibration sample and converts the
    step's seconds to cal by the mean of the samples before and after it.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.seconds = self.cal = 0.0
        self.before = calibration.take()
        self.started = time.perf_counter()

    def __call__(self) -> None:
        elapsed = time.perf_counter() - self.started
        after = self.calibration.take()
        self.seconds += elapsed
        self.cal += elapsed / ((self.before + after) / 2)
        self.before = after
        self.started = time.perf_counter()


def timed_setups(setup, reps: int, between=None) -> dict:
    """Run ``setup(mark)`` ``reps`` times; return the median in reference seconds.

    A set-up calls ``mark()`` between its steps (booting, uploading, each
    warm-up solve).  Each step is converted to cal by the samples around it,
    as an op is: with samples only at the ends of a set-up of several
    seconds, neighbouring samples differed by up to 60% while the set-ups
    beside them differed by 15%, and the set-up's spread from run to run was
    up to 0.28.  ``between()``, if given, runs untimed before every set-up
    but the first (it undoes the previous one).  ``setup_s`` is the median
    set-up in cal times ``REFERENCE_CAL_S``.
    """
    calibration = Calibration()
    raw, cal = [], []
    for rep in range(reps):
        if rep and between is not None:
            between()
        mark = _Steps(calibration)
        setup(mark)
        mark()
        raw.append(mark.seconds)
        cal.append(mark.cal)
    return {"setup_s": statistics.median(cal) * REFERENCE_CAL_S,
            "setup_raw_s": raw, "setup_cal": cal}
