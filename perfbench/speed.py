"""Machine-speed calibration of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts, by tens of
percent over seconds to minutes, as other tenants load the host.  Every
operation of a run slows alike, set-up included, so no estimator taken inside
one run removes the drift, and ten runs of the same code disagree by more
than any bound the benchmark could set.

So the benchmark also times a fixed reference kernel: pure Python, standard
library only, no quantlogic code.  ``Calibrator.due`` runs it between
operations, never inside an operation's timing, at most once per EVERY_S.
Each sample runs the kernel once untimed and then once timed, so that the
timed run finds the kernel's data and code in cache whatever ran before it:
the factor then follows the machine and not the cache residue of the
program's last operation.
``Calibrator.factor(t)`` is REFERENCE_S over the median of the NEAREST kernel
times around time t.  An operation's time times its factor is its time on a
machine that runs the kernel in REFERENCE_S: a change to the program moves it
as it moves the raw time, because the kernel does not run program code,
while a change of machine speed that slows the kernel and the program alike
cancels.

REFERENCE_S is the kernel's median time on a 2-vCPU Intel Xeon virtual
machine under Python 3.11.7; it only fixes the unit, and both sides of any
comparison use the same constant.
"""

from __future__ import annotations

import array
import bisect
import math
import random
import statistics
import time

PERF = time.perf_counter
REFERENCE_S = 0.0016
EVERY_S = 0.1
NEAREST = 9

_rng = random.Random(0)
_DATA = [_rng.random() for _ in range(3000)]
_TABLE = {i: i * 0.5 for i in range(512)}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b


def _affine(p, x: float) -> float:
    return p.a * x + p.b if isinstance(p, _Pair) else x


def kernel() -> float:
    """The reference work, in the interpreter paths the program uses most:
    list building, float arithmetic, dict lookups, small-object construction,
    isinstance dispatch, function calls and math.log/exp."""
    out = [x * 1.5 + 0.25 for x in _DATA]
    s = 0.0
    for i, x in enumerate(out):
        if x > 1.0:
            s += x * _TABLE[i & 511]
        else:
            s -= x
    for x in _DATA[:1000]:
        s += math.log(_affine(_Pair(x, 1.0), x) + 1.0) + math.exp(-x)
    return min(out) + s


class Calibrator:
    """Kernel times of one run, in time order, and the factors they give."""

    def __init__(self):
        self.starts, self.costs = array.array("d"), array.array("d")
        self.last = -math.inf
        self._smoothed: list[float] | None = None

    def sample(self) -> None:
        kernel()
        t0 = PERF()
        kernel()
        self.last = PERF()
        self.starts.append(t0)
        self.costs.append(self.last - t0)
        self._smoothed = None

    def due(self) -> None:
        if PERF() - self.last >= EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median kernel time around time t."""
        if self._smoothed is None:
            half, costs = NEAREST // 2, self.costs
            self._smoothed = [statistics.median(costs[max(0, j - half):j + half + 1])
                              for j in range(len(costs))]
        j = min(max(bisect.bisect_right(self.starts, t) - 1, 0), len(self.starts) - 1)
        return REFERENCE_S / self._smoothed[j]
