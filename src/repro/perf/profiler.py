"""``csar-repro profile``: cProfile one experiment plus kernel counters.

Wraps an experiment run in :mod:`cProfile` and, through
:func:`~repro.perf.runner.collecting_environments`, collects the free
scheduling/dispatch counters of every
:class:`~repro.sim.engine.Environment` the experiment creates (one per
simulated system/phase).  The counters cost nothing in
the kernel — ``scheduled`` is the heap sequence number the engine keeps
anyway and ``dispatched`` is derived from it — so profiling answers both
"where does the wall clock go?" and "how many events did that cost?".
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Optional, Tuple

from repro.experiments import ExpTable, get_experiment
from repro.perf.runner import collecting_environments


def profile_experiment(exp_id: str, scale: Optional[float] = None,
                       top: int = 20,
                       sort: str = "cumulative") -> Tuple[str, ExpTable]:
    """Run one experiment under cProfile; returns (report text, table)."""
    exp = get_experiment(exp_id)
    effective = exp.default_scale if scale is None else scale
    with collecting_environments() as envs, cProfile.Profile() as profiler:
        table = exp.run(scale=effective)

    lines = [f"== profile: {exp_id} (scale {effective:g}) ==", ""]
    lines.append("-- kernel counters (one environment per simulated "
                 "system/phase) --")
    total_scheduled = total_dispatched = 0
    for i, env in enumerate(envs):
        stats = env.stats()
        total_scheduled += stats["scheduled"]
        total_dispatched += stats["dispatched"]
        lines.append(
            f"env#{i}: scheduled={stats['scheduled']} "
            f"dispatched={stats['dispatched']} "
            f"pending={stats['pending']} sim_time={stats['now']:.3f}s")
    lines.append(f"total: environments={len(envs)} "
                 f"scheduled={total_scheduled} "
                 f"dispatched={total_dispatched}")
    lines.append("")

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    lines.append(f"-- cProfile (top {top} by {sort}) --")
    lines.append(buffer.getvalue().rstrip())
    return "\n".join(lines), table
