"""Parallel experiment sweeps over a process pool.

A sweep point — one ``(experiment, scale)`` pair — is an independent,
fully deterministic simulation, so points are embarrassingly parallel:
each worker process runs exactly one simulation at a time and produces
the same tables it would produce sequentially.  :func:`run_sweep` fans
points across a :class:`~concurrent.futures.ProcessPoolExecutor` and
yields results **in submission order** regardless of completion order,
so ``--jobs 4`` output is byte-identical to ``--jobs 1`` (modulo wall
clock, which is reported but not part of any table).

Failures never vanish into the pool: a point whose experiment raises
comes back as a :class:`SweepResult` carrying the original exception,
and :meth:`SweepResult.raise_error` re-raises it wrapped in a
:class:`SweepPointError` naming the point.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.experiments import ExpTable, get_experiment
from repro.sim import engine


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of sweep work: an experiment at a scale."""

    exp_id: str
    scale: Optional[float] = None
    label: Optional[str] = None

    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        if self.scale is None:
            return self.exp_id
        return f"{self.exp_id}@{self.scale:g}"


@dataclass
class SweepResult:
    """Outcome of one sweep point (table or error, never both)."""

    point: SweepPoint
    table: Optional[ExpTable]
    wall: float
    #: Kernel counters summed over every Environment the point created:
    #: ``environments``, ``events_scheduled``, ``events_dispatched``,
    #: ``sim_time``.
    counters: Dict[str, float] = field(default_factory=dict)
    error: Optional[BaseException] = None
    sanitizer_reports: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return self.point.resolved_label()

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_error(self) -> None:
        """Re-raise the point's failure (no-op when the point succeeded)."""
        if self.error is not None:
            raise SweepPointError(self.label, self.error) from self.error


class SweepPointError(RuntimeError):
    """A sweep point failed; names the point and carries the original."""

    def __init__(self, label: str, original: BaseException) -> None:
        super().__init__(
            f"sweep point {label!r} failed: "
            f"{type(original).__name__}: {original}")
        self.label = label
        self.original = original


def _portable_exception(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a summary.

    Worker results cross a process boundary; an unpicklable exception
    would otherwise take down the whole pool instead of one point.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


@contextmanager
def collecting_environments() -> Iterator[List[engine.Environment]]:
    """Collect every :class:`Environment` created inside the block.

    Chains to whatever observer was installed before and puts it back on
    exit, so collectors nest (``csar-repro profile`` inside a harness
    that counts environments itself).
    """
    envs: List[engine.Environment] = []
    previous = engine.env_observer()

    def observer(env: engine.Environment) -> None:
        envs.append(env)
        if previous is not None:
            previous(env)

    engine.set_env_observer(observer)
    try:
        yield envs
    finally:
        engine.set_env_observer(previous)


def _run_point(point: SweepPoint,
               sanitize: Optional[str] = None) -> SweepResult:
    """Execute one point in the current process (the worker body)."""
    from repro.analysis import sanitize_modes, sanitizer_scope

    table: Optional[ExpTable] = None
    error: Optional[BaseException] = None
    with sanitizer_scope(sanitize_modes(sanitize)) as drain, \
            collecting_environments() as envs:
        t0 = time.perf_counter()
        try:
            exp = get_experiment(point.exp_id)
            effective = (exp.default_scale if point.scale is None
                         else point.scale)
            table = exp.run(scale=effective)
        except Exception as exc:
            error = _portable_exception(exc)
        wall = time.perf_counter() - t0
        reports = [report.format() for _tool, report in drain()]

    counters: Dict[str, float] = {
        "environments": float(len(envs)),
        "events_scheduled": 0.0,
        "events_dispatched": 0.0,
        "sim_time": 0.0,
    }
    for env in envs:
        stats = env.stats()
        counters["events_scheduled"] += stats["scheduled"]
        counters["events_dispatched"] += stats["dispatched"]
        counters["sim_time"] += stats["now"]
    return SweepResult(point=point, table=table, wall=wall,
                       counters=counters, error=error,
                       sanitizer_reports=reports)


def _mp_context():
    """Prefer ``fork``: cheap worker start-up and the parent's experiment
    registry (including anything registered at runtime) is inherited."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sweep(points: Sequence[SweepPoint], jobs: int = 1,
              sanitize: Optional[str] = None) -> Iterator[SweepResult]:
    """Run every point; yields each result, in submission order, as soon
    as it (and every point before it) has finished.

    ``jobs <= 1`` (or a single point) runs in-process, one point per
    ``next()``; ``jobs > 1`` fans out over a process pool.  Unknown
    experiment ids raise :class:`~repro.errors.ConfigError` here, before
    anything runs or any worker is spawned.
    """
    points = list(points)
    for point in points:
        get_experiment(point.exp_id)  # validate early; raises ConfigError
    if jobs <= 1 or len(points) <= 1:
        return (_run_point(point, sanitize) for point in points)
    return _pool_sweep(points, jobs, sanitize)


def _pool_sweep(points: List[SweepPoint], jobs: int,
                sanitize: Optional[str]) -> Iterator[SweepResult]:
    """The ``jobs > 1`` half of :func:`run_sweep`: submit every point,
    then yield the futures' results in submission order."""
    with ProcessPoolExecutor(max_workers=min(jobs, len(points)),
                             mp_context=_mp_context()) as pool:
        futures = [pool.submit(_run_point, point, sanitize)
                   for point in points]
        for point, future in zip(points, futures):
            try:
                yield future.result()
            except BaseException as exc:
                # The worker process died outright (BrokenProcessPool,
                # unpicklable payload, ...): surface it on its point.
                yield SweepResult(point=point, table=None, wall=0.0,
                                  error=_portable_exception(exc))


def merge_counters(results: Iterable[SweepResult]) -> Dict[str, float]:
    """Sum kernel counters across points, plus ok/failed point counts."""
    merged: Dict[str, float] = {"points_ok": 0.0, "points_failed": 0.0,
                                "wall_seconds": 0.0}
    for result in results:
        merged["points_ok" if result.ok else "points_failed"] += 1
        merged["wall_seconds"] += result.wall
        for key, value in result.counters.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged
