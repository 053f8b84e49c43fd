"""How fast the shared machine is running right now.

Other tenants of the machine slow every process on it by up to a half,
for seconds to minutes at a time.  A fixed reference loop slows down
with them, so the benchmark times that loop between program calls and
rescales the calls to a machine on which the loop takes
``REFERENCE_NS``.  The loop mixes interpreted bytecode with small NumPy
reductions, like the engine does.  On a quiet machine the factor is
close to 1; on a busy one it takes out much of the slowdown (on a
2-vCPU VM the spread of 2-second means of ``get`` latency fell from 13%
to 3%).  The loop allocates nothing that the garbage collector tracks
and only reads its own small array, so the program's own state does not
change its time.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: Loop time, in ns, that calls are rescaled to.
REFERENCE_NS = 1_000_000
#: Bytecode iterations and NumPy reductions per sample (about 1 ms in all
#: on a quiet machine).
LOOP = 6_000
REDUCTIONS = 100
_ARRAY = np.arange(8192, dtype=np.uint32)
#: Minimum time between two samples during a timed phase.
SAMPLE_EVERY_NS = 50_000_000


def loop_ns() -> int:
    """Time one run of the reference loop."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    for i in range(REDUCTIONS):
        total += int((_ARRAY[i:i + 4096] ^ 0x5BD1E995).sum())
    return time.perf_counter_ns() - start


def slowdown(samples: Sequence[int]) -> float:
    """How much slower than the reference the machine ran (median sample)."""
    return statistics.median(samples) / REFERENCE_NS


def sample(count: int = 5) -> list:
    """A few back-to-back samples, taken around each set-up."""
    return [loop_ns() for _ in range(count)]
