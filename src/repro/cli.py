"""Command-line front end: list and run the paper's experiments.

::

    csar-repro list
    csar-repro run fig3
    csar-repro run fig6a --scale 0.1
    csar-repro run all --scale 0.05 --sanitize
    csar-repro run all --scale 0.05 --sanitize=all
    csar-repro run fig3 --csv-dir out/csv
    csar-repro report --ledger docs/results/experiments.json
    csar-repro report --diff old.json docs/results/experiments.json
    csar-repro chaos --seeds 0:8 --plan-dir out/chaos
    csar-repro chaos --replay out/chaos/seed3-raid5.json
    csar-repro chaos --smoke
    csar-repro chaos --matrix
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.errors import ConfigError
from repro.experiments import REGISTRY, get_experiment
from repro.experiments.base import list_experiments


def _cmd_list() -> int:
    width = max(len(e.id) for e in list_experiments())
    for exp in list_experiments():
        print(f"{exp.id.ljust(width)}  {exp.title} "
              f"(default scale {exp.default_scale:g})")
    return 0


def _positive_scale(text: str) -> float:
    """The argparse type of ``--scale``: a finite float above zero."""
    try:
        value = float(text)
        if 0 < value < float("inf"):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a number greater than 0, not {text!r}")


def _missing(kind: str, paths: List[str]) -> int:
    """2 after naming the first of ``paths`` that does not exist, else 0."""
    for path in paths:
        if not os.path.exists(path):
            print(f"error: no such {kind}: {path}", file=sys.stderr)
            return 2
    return 0


def _cmd_run(ids: List[str], scale: Optional[float],
             csv_dir: Optional[str] = None,
             sanitize: Optional[str] = None) -> int:
    """Run experiments one after another in this process, printing each
    table as soon as its experiment has finished."""
    from repro.analysis import sanitize_modes, sanitizer_scope

    if ids == ["all"]:
        ids = sorted(REGISTRY)
    try:
        experiments = [get_experiment(exp_id) for exp_id in ids]
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    status = 0
    for exp in experiments:
        effective = exp.default_scale if scale is None else scale
        with sanitizer_scope(sanitize_modes(sanitize)) as drain:
            t0 = time.perf_counter()
            try:
                table = exp.run(scale=effective)
            except Exception as err:
                print(f"error: experiment {exp.id} failed: "
                      f"{type(err).__name__}: {err}", file=sys.stderr)
                status = 1
                continue
            wall = time.perf_counter() - t0
            reports = [report.format() for _tool, report in drain()]
        print(table.format())
        print(f"(scale {effective:g}, {wall:.1f}s wall)\n")
        for report in reports:
            print(f"{exp.id}: {report}", file=sys.stderr)
            status = 1
        if csv_dir is not None:
            os.makedirs(csv_dir, exist_ok=True)
            out_path = os.path.join(csv_dir, f"{exp.id}.csv")
            with open(out_path, "w") as fp:
                fp.write(table.to_csv())
            print(f"wrote {out_path}\n")
    return status


def _cmd_replay(path: str) -> int:
    """``chaos --replay``: re-run one replay file."""
    from repro.faults import campaign

    if _missing("replay file", [path]):
        return 2
    reproduced, outcome, recording = campaign.replay(path)
    got = f"{outcome.format()}: {outcome.failure or 'clean run'}"
    if reproduced:
        print(f"replayed {path}: reproduced — {got}")
        return 0
    kind = (recording.get("failure") or {}).get("kind")
    print(f"replay of {path} did NOT reproduce the recorded outcome "
          f"[{kind}]; got: {got}", file=sys.stderr)
    return 1


def _cmd_chaos(seeds: List[int], schemes: List[str], num_ops: int,
               plan_dir: Optional[str], smoke: bool, matrix: bool) -> int:
    from repro.faults import runner
    from repro.faults.matrix import crash_matrix, run_cell
    from repro.faults.plan import STEP_NAMES

    if matrix:
        bad, reached = [], set()
        for scheme in ("raid5", "hybrid"):
            cells = crash_matrix(scheme)
            reached.update(step for step, *_rest in cells)
            bad += [(scheme, *cell) for cell in cells if not cell[3].ok]
            print(f"{scheme}: {len(cells)} crash cells, "
                  f"{sum(b[0] == scheme for b in bad)} violating")
        for scheme, step, nth, victim, outcome in bad:
            print(f"  {scheme} {step}#{nth} victim={victim}: "
                  f"{outcome.format()}: {outcome.failure}", file=sys.stderr)
        for step in sorted(STEP_NAMES - reached):
            print(f"error: no scheme reaches step {step}", file=sys.stderr)
        return 1 if bad or STEP_NAMES - reached else 0
    if smoke:
        # Verify the verifier: the real scheme passes the cell that
        # convicts the seeded mid-RMW bug by the acked-byte oracle alone.
        from repro.analysis.seeded_bugs import CompensatingWritebackRaid5

        cell = ("raid5", "raid5.rmw.before_writeback", 1, 0)
        real = run_cell(*cell)
        buggy = run_cell(*cell, make_scheme=CompensatingWritebackRaid5)
        if not real.ok or buggy.failure_kind != "differential":
            print(f"error: the crash matrix must pass raid5 ({real.format()})"
                  f" and convict CompensatingWritebackRaid5 by the oracle "
                  f"({buggy.format()})", file=sys.stderr)
            return 1
        print(f"seeded bug caught: raid5 {cell[1]}#{cell[2]} "
              f"victim={cell[3]}: "
              f"{buggy.format()}: {buggy.failure}")
        return 0
    outcomes = runner.run_campaign(seeds, schemes, num_ops=num_ops,
                                   plan_dir=plan_dir)
    labels = [f"seed {seed} {scheme}" for seed in seeds for scheme in schemes]
    for label, outcome in zip(labels, outcomes):
        print(f"{label}: {outcome.format()}")
    failed = not all(outcome.ok for outcome in outcomes)
    if failed and plan_dir is not None:
        print(f"failing plans written to {plan_dir}", file=sys.stderr)
    return int(failed)


def _seed_set(text: str) -> List[int]:
    """The argparse type of ``--seeds``: ``LO:HI`` (half-open, LO < HI)
    or a comma list of seeds, never empty."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in text.split(",") if s]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"must be LO:HI with LO < HI or a comma list of integers, "
            f"not {text!r}")
    return seeds


def _scheme_list(text: str) -> List[str]:
    """The argparse type of ``chaos --schemes``: known schemes, comma
    separated."""
    from repro.faults.runner import CHAOS_SCHEMES

    schemes = [s for s in text.split(",") if s]
    unknown = sorted(set(schemes) - set(CHAOS_SCHEMES))
    if not schemes or unknown:
        raise argparse.ArgumentTypeError(
            f"must be a comma list of {', '.join(CHAOS_SCHEMES)}, "
            f"not {text!r}")
    return schemes


def _positive_int(text: str) -> int:
    """The argparse type of ``--ops``: an integer above zero."""
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer greater than 0, not {text!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="csar-repro",
        description="Reproduce the figures and tables of Pillai & Lauria, "
                    "'A High Performance Redundancy Scheme for Cluster "
                    "File Systems' (CLUSTER 2003)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run experiments by id ('all' runs "
                                       "everything)")
    run_p.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run_p.add_argument("--scale", type=_positive_scale, default=None,
                       help="data-volume scale factor (default: "
                            "per-experiment)")
    run_p.add_argument("--csv-dir", default=None,
                       help="also write each table as CSV into this "
                            "directory")
    run_p.add_argument("--sanitize", nargs="?", const="lock", default=None,
                       choices=("lock", "parity", "buf", "all"),
                       help="run under runtime sanitizers; reports fail "
                            "the run.  'lock' (the default when the flag "
                            "is bare) = LockSan lock protocol, 'parity' = "
                            "ParitySan redundancy invariants, 'buf' = "
                            "BufSan buffer-immutability fingerprints, "
                            "'all' = every sanitizer")
    report_p = sub.add_parser(
        "report", help="run the paper-claim checklist and print verdicts")
    report_p.add_argument("--scale", type=_positive_scale, default=None,
                          help="data-volume scale factor")
    report_p.add_argument("--ledger", default=None, metavar="FILE",
                          help="also run the table-only experiments and "
                               "write every table and claim value to FILE "
                               "(docs/results/experiments.json is the "
                               "committed one, at the default scales)")
    report_p.add_argument("--diff", nargs=2, default=None,
                          metavar=("OLD", "NEW"),
                          help="run nothing: list every claim value, "
                               "verdict and table cell that differs "
                               "between two ledger files (exit 1 if any)")
    chaos_p = sub.add_parser(
        "chaos", help="run seed-deterministic fault-injection campaigns "
                      "with a differential oracle (see docs/FAULTS.md)")
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="single campaign seed (default 0)")
    chaos_p.add_argument("--seeds", type=_seed_set, default=None,
                         help="seed set: 'LO:HI' (half-open range) or a "
                              "comma list; overrides --seed")
    chaos_p.add_argument("--schemes", type=_scheme_list,
                         default="raid0,raid1,raid5,hybrid",
                         help="comma list of schemes to sweep "
                              "(default: all four)")
    chaos_p.add_argument("--ops", type=_positive_int, default=10,
                         dest="num_ops",
                         help="workload operations per run (default 10)")
    chaos_p.add_argument("--plan-dir", default=None,
                         help="write each failing run's fault plan as "
                              "replayable JSON into this directory")
    chaos_p.add_argument("--replay", default=None, dest="replay_path",
                         metavar="FILE",
                         help="re-run a saved fault plan and verify the "
                              "recorded outcome reproduces")
    chaos_p.add_argument("--smoke", action="store_true",
                         help="verify the verifier: the seeded mid-RMW "
                              "bug is caught (the CI gate)")
    chaos_p.add_argument("--matrix", action="store_true",
                         help="run the full crash-consistency matrix "
                              "(every server x every protocol step) for "
                              "raid5 and hybrid")
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "report":
        from repro.experiments.report import run_report

        if _missing("ledger file", args.diff or []):
            return 2
        text, ok = run_report(scale=args.scale, ledger_path=args.ledger,
                              diff=args.diff)
        if text:
            print(text)
        return 0 if ok else 1
    if args.command == "chaos":
        if args.replay_path:
            return _cmd_replay(args.replay_path)
        return _cmd_chaos(args.seeds or [args.seed], args.schemes,
                          args.num_ops, args.plan_dir, args.smoke,
                          args.matrix)
    return _cmd_run(args.ids, args.scale, args.csv_dir, args.sanitize)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
