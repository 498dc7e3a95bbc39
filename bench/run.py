"""Run the benchmark: ``python3 bench/run.py`` from the repo root.

With ``--workload W`` one workload runs in this process (one thread) and
the last line of standard output is one JSON object -- the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics -- as
``BENCHMARK.json`` declares them.  Without ``--workload`` every workload
runs in a fresh process of its own (so ``peak_rss_mb`` is per workload),
``--trace`` adds a traced run of each, and everything measured is
written to ``bench/out/results-seed<N>.json`` for ``bench/compare.py``.

Exit status is non-zero when an op fails, a verified read differs from
the numpy reference, or two repeats disagree on a simulated statistic.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # imports below are part of setup_s

import argparse
import cProfile
import gc
import json
import os
import platform
import subprocess
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.sim import engine  # noqa: E402

from bench import harness  # noqa: E402
from bench.workloads import SIZES, WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(BENCH_DIR, "out")
#: never more repeats than this in one process, however short they are
MAX_REPEATS = 50


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def run_repeat(workload: str, seed: int, size: str, profiler=None,
               rpc_counter=None) -> harness.Recorder:
    """One repeat of ``workload`` on the inputs ``seed`` generates."""
    rec = harness.Recorder(workload, profiler, rpc_counter)
    previous = engine.env_observer()
    engine.set_env_observer(rec.on_env)
    try:
        WORKLOADS[workload](rec, seed, SIZES[size][workload])
    finally:
        engine.set_env_observer(previous)
    return rec


def _quartiles(values: List[float]) -> Optional[List[float]]:
    if len(values) < 2:
        return None
    q1, _q2, q3 = quantiles(values, n=4)
    return [q1, q3]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", startup_s: float = 0.0) -> dict:
    """Warm up, repeat until ``seconds`` of timed work, verify, report.

    The warm-up is one untimed repeat at the tiny size: it runs every
    code path once, and being short it adds little noise of its own to
    ``setup_s``, which it is part of.  A traced measurement is one untraced repeat (for the phase times and
    the overhead ratio's base) and one repeat under cProfile.
    """
    t0 = time.perf_counter()
    run_repeat(workload, seed, "tiny")
    warmup_s = time.perf_counter() - t0

    samples: Dict[str, List[float]] = {"setup_s": [], "wall_s": [],
                                       "cpu_s": []}
    digests = set()
    attempted = failed = 0
    failures: List[str] = []
    rec = None

    def keep(r: harness.Recorder) -> None:
        nonlocal attempted, failed
        digests.add(r.digest())
        attempted += r.attempted
        failed += r.failed
        failures.extend(r.failures[:8 - len(failures)])

    while True:
        rec = None  # free the previous repeat before the next one runs
        gc.collect()
        rec = run_repeat(workload, seed, size)
        keep(rec)
        for name in samples:
            samples[name].append(getattr(rec, name))
        if trace or sum(samples["wall_s"]) >= seconds \
                or len(samples["wall_s"]) >= MAX_REPEATS:
            break

    metrics: Dict[str, Optional[float]] = dict(rec.simulated_metrics())
    metrics.update(rec.host_metrics())
    metrics["wall_s"] = median(samples["wall_s"])
    metrics["cpu_s"] = median(samples["cpu_s"])
    samples["setup_s"] = [startup_s + warmup_s + s
                          for s in samples["setup_s"]]
    metrics["setup_s"] = median(samples["setup_s"])
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "repeats": len(samples["wall_s"]),
        "startup_s": startup_s, "warmup_s": warmup_s, "samples": samples,
        "quartiles": {k: _quartiles(v) for k, v in samples.items()},
        "input_digest": rec.input_digest,
    }

    if trace:
        untraced_wall = rec.wall_s
        rec = None
        gc.collect()
        profiler = cProfile.Profile()
        with harness.counting_rpcs() as rpc_counter:
            rec = run_repeat(workload, seed, size, profiler, rpc_counter)
        keep(rec)
        metrics.update(harness.traced_metrics(profiler, rec, untraced_wall))
        result["trace_file"] = write_trace(rec, seed)

    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    result.update({
        "metrics": metrics,
        "runs": runs_by_label(rec),
        "sim_digest": sorted(digests)[0],
        "digests_agree": len(digests) == 1,
        "attempted": attempted, "failed": failed, "failures": failures,
        "correct": failed == 0 and len(digests) == 1,
    })
    return result


def runs_by_label(rec: harness.Recorder) -> Dict[str, dict]:
    """Each scheme's simulated counters, apart from the other schemes'."""
    out: Dict[str, dict] = {}
    for run in rec.runs:
        entry = out.setdefault(run.label, {"scheme": run.scheme,
                                           "sim_s": 0.0, "stats": {}})
        entry["sim_s"] += run.sim_s
        for key, value in sorted(run.stats.items()):
            entry["stats"][key] = entry["stats"].get(key, 0.0) + value
    return out


def write_trace(rec: harness.Recorder, seed: int) -> str:
    """The traced repeat's spans, kept in memory until now."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{rec.workload}.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump({"workload": rec.workload, "seed": seed,
                   "sim_digest": rec.digest(), "spans": rec.spans}, fp)
        fp.write("\n")
    return os.path.relpath(path, ROOT)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def format_result(result: dict, spec: dict) -> str:
    """Every metric of one workload run by name, value and unit."""
    metrics = result["metrics"]
    lines = [f"== {result['workload']} (seed {result['seed']}, "
             f"{result['repeats']} timed repeat(s)"
             f"{', traced' if result['trace'] else ''}) =="]

    def row(name: str, unit: str) -> str:
        value = metrics.get(name)
        text = "null" if value is None else f"{value:.6g}"
        quart = result["quartiles"].get(name)
        extra = (f"  [q1 {quart[0]:.4g}, q3 {quart[1]:.4g}, "
                 f"n {result['repeats']}]" if quart else "")
        return f"  {name:<44} {text:>14} {unit}{extra}"

    lines.append(" end to end (host time unless the name starts sim_):")
    for m in spec["end_to_end"]:
        lines.append(row(m["name"], m["unit"]))
    lines.append(f"  {'op_fail_share':<44} "
                 f"{result['failed'] / max(result['attempted'], 1):>14.6g} "
                 f"share  [{result['failed']} of {result['attempted']}]")
    lines.append(f"  sim_digest {result['sim_digest']}")
    lines.append(" per layer:")
    for m in spec["per_layer"]:
        if m["name"] in metrics:
            lines.append(row(m["name"], m["unit"]))
    for message in result["failures"]:
        lines.append(f"  FAILED: {message}")
    if not result["digests_agree"]:
        lines.append("  FAILED: repeats disagree on a simulated statistic")
    return "\n".join(lines)


def contract_line(result: dict, spec: dict) -> str:
    """The last line of standard output the driver reads."""
    declared = spec["per_layer" if result["trace"] else "end_to_end"]
    missing = [m["name"] for m in declared
               if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"declared metrics not measured: {missing}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        # a metric this workload does not define reads 0 here and "null"
        # in the report above
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]] or 0.0,
                                "unit": m["unit"]} for m in declared},
    })


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def run_all(args, spec: dict) -> int:
    """Every workload, each in a fresh process; results to one file."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results: Dict[str, dict] = {}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ([0, 1] if args.trace else [0]):
            path = os.path.join(OUT_DIR, f"result-{workload}-{trace}.json")
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--result-file", path],
                stdout=subprocess.DEVNULL).returncode
            if code != 0 and not os.path.exists(path):
                print(f"{workload}: exited with status {code}")
                return code
            with open(path, encoding="utf-8") as fp:
                result = json.load(fp)
            os.remove(path)
            print(format_result(result, spec), flush=True)
            status = status or code
            results[workload + ("/traced" if trace else "")] = result
    out = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    with open(out, "w", encoding="utf-8") as fp:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "machine": machine(), "results": results}, fp, indent=1)
        fp.write("\n")
    print(f"results written to {os.path.relpath(out)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the inputs are generated from it (default 1)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="repeat until this much timed work is measured")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics and a span file")
    parser.add_argument("--out", help="where the all-workloads run writes "
                                      "its results file")
    parser.add_argument("--result-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)

    harness.pin_malloc_mmap_threshold()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace),
                     startup_s=time.perf_counter() - _PROCESS_START)
    if args.result_file:
        with open(args.result_file, "w", encoding="utf-8") as fp:
            json.dump(result, fp)
    print(format_result(result, spec))
    print(contract_line(result, spec))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
