"""Performance layer: parallel sweeps and profiling.

Two pieces, both riding on the deterministic event kernel (the benchmark
of record is ``bench/`` at the repo root, outside the package):

* :mod:`repro.perf.runner` — fan independent experiment sweep points
  across a process pool (``csar-repro run --jobs N``) with deterministic
  result ordering and merged kernel counters;
* :mod:`repro.perf.profiler` — ``csar-repro profile``: cProfile plus the
  kernel's free event/dispatch counters, per environment.
"""

from repro.perf.runner import (SweepPoint, SweepPointError, SweepResult,
                               collecting_environments, merge_counters,
                               run_sweep)

__all__ = [
    "SweepPoint",
    "SweepPointError",
    "SweepResult",
    "collecting_environments",
    "merge_counters",
    "run_sweep",
]
