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
    csar-repro lint src --format=json
    csar-repro lint src --format=sarif > lint.sarif
    csar-repro lint src --write-baseline tools/lint_baseline.json
    csar-repro lint src --baseline tools/lint_baseline.json \
        --witnesses witnesses.json
    csar-repro explore --smoke --witness-file witnesses.json
    csar-repro explore race-lock-order --strategy pct --budget 128
    csar-repro explore --replay out/race-lock-order.sched
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


def _missing(kind: str, paths: List[Optional[str]]) -> int:
    """2 after naming the first of ``paths`` that does not exist (``None``
    entries are not given, so skipped), else 0."""
    for path in paths:
        if path is not None and not os.path.exists(path):
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


def _cmd_explore(scenario: Optional[str], strategy: str, budget: int,
                 depth: int, seed: int, smoke: bool,
                 sched_dir: Optional[str], replay_path: Optional[str],
                 list_scenarios: bool,
                 witness_path: Optional[str] = None) -> int:
    from repro.analysis import explore

    if list_scenarios:
        width = max(len(name) for name in explore.SCENARIOS)
        for name in sorted(explore.SCENARIOS):
            scen = explore.SCENARIOS[name]
            tag = " [seeded bug]" if scen.seeded_bug else ""
            print(f"{name.ljust(width)}  {scen.description}{tag}")
        return 0

    if replay_path is not None:
        if _missing("schedule file", [replay_path]):
            return 2
        record = explore.load_schedule(replay_path)
        reproduced, violation = explore.replay(record)
        if reproduced:
            print(f"replayed {record.scenario}: reproduced "
                  f"{violation.format()}")
            return 0
        got = violation.format() if violation is not None else "clean run"
        print(f"replay of {record.scenario} did NOT reproduce "
              f"{record.violation.format()}; got: {got}", file=sys.stderr)
        return 1

    if smoke:
        try:
            results = explore.explore_smoke(budget=budget, depth=depth,
                                            sched_dir=sched_dir,
                                            witness_path=witness_path)
        except AssertionError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        for result in results:
            print(f"{result.scenario}: caught "
                  f"{result.record.violation.format()} after "
                  f"{result.schedules} schedule(s); replay deterministic")
        if witness_path is not None:
            print(f"wrote lock-order witnesses to {witness_path}")
        return 0

    if scenario is None:
        print("error: give a scenario name, --smoke, --replay, or --list",
              file=sys.stderr)
        return 2
    explore.drain_witnesses()
    try:
        result = explore.explore(scenario, strategy=strategy, budget=budget,
                                 depth=depth, seed=seed)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    if witness_path is not None:
        from repro.analysis import lint

        lint.save_witnesses(explore.drain_witnesses(), witness_path)
        print(f"wrote lock-order witnesses to {witness_path}")
    if not result.found:
        print(f"{scenario}: no violation in {result.schedules} "
              f"schedule(s) ({strategy})")
        return 0
    print(f"{scenario}: violation after {result.schedules} schedule(s) "
          f"({strategy}): {result.record.violation.format()}")
    if sched_dir is not None:
        os.makedirs(sched_dir, exist_ok=True)
        path = os.path.join(sched_dir, f"{scenario}.sched")
        explore.save_schedule(result.record, path)
        print(f"wrote {path}")
    return 1


def _cmd_chaos(seeds: List[int], schemes: List[str], num_ops: int,
               plan_dir: Optional[str], replay_path: Optional[str],
               smoke: bool, matrix: bool) -> int:
    from repro.faults import runner

    if replay_path is not None:
        if _missing("fault plan file", [replay_path]):
            return 2
        reproduced, result = runner.replay(replay_path)
        if reproduced:
            print(f"replayed {replay_path}: reproduced — {result.format()}")
            return 0
        print(f"replay of {replay_path} did NOT reproduce the recorded "
              f"outcome; got: {result.format()}", file=sys.stderr)
        return 1

    if matrix:
        from repro.faults.matrix import crash_matrix
        from repro.faults.plan import STEP_NAMES

        status = 0
        reached = set()
        for scheme in ("raid5", "hybrid"):
            cells = crash_matrix(scheme)
            reached.update(c.step for c in cells)
            bad = [c for c in cells if not c.ok]
            print(f"{scheme}: {len(cells)} crash cells, "
                  f"{len(bad)} violating")
            for cell in bad:
                print(f"  {cell.format()}", file=sys.stderr)
                status = 1
        for step in sorted(STEP_NAMES - reached):
            print(f"error: no scheme reaches step {step}", file=sys.stderr)
            status = 1
        return status

    if smoke:
        # Verify the verifier: the seeded mid-RMW bug must be caught by
        # the crash matrix, the real scheme must pass the same cell, and
        # a chaos run must be digest-deterministic.
        from repro.analysis.seeded_bugs import CompensatingWritebackRaid5
        from repro.faults.matrix import run_cell

        cell = run_cell("raid5", "raid5.rmw.before_writeback", 1, 0)
        if not cell.ok:
            print(f"error: real raid5 failed the matrix: {cell.format()}",
                  file=sys.stderr)
            return 1
        cell = run_cell("raid5", "raid5.rmw.before_writeback", 1, 0,
                        make_scheme=CompensatingWritebackRaid5)
        if cell.ok:
            print("error: the crash matrix did not catch "
                  "CompensatingWritebackRaid5", file=sys.stderr)
            return 1
        print(f"seeded bug caught: {cell.format()}")
        first = runner.run_chaos(seeds[0], "raid5", num_ops=num_ops)
        again = runner.run_chaos(seeds[0], "raid5", num_ops=num_ops)
        if first.digest != again.digest:
            print("error: chaos run is not deterministic", file=sys.stderr)
            return 1
        print(f"chaos determinism: seed {seeds[0]} raid5 digest "
              f"{first.digest[:12]} reproduces")
        return 0

    results = runner.run_campaign(seeds, schemes, num_ops=num_ops,
                                  plan_dir=plan_dir)
    status = 0
    for result in results:
        print(result.format())
        if not result.ok:
            status = 1
    if status and plan_dir is not None:
        print(f"failing plans written to {plan_dir}", file=sys.stderr)
    return status


def _parse_seeds(seed: int, seeds: Optional[str]) -> List[int]:
    if seeds is None:
        return [seed]
    if ":" in seeds:
        lo, hi = seeds.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(s) for s in seeds.split(",") if s]


def _cmd_lint(paths: List[str], fmt: str, list_rules: bool,
              baseline_path: Optional[str] = None,
              write_baseline_path: Optional[str] = None,
              witness_path: Optional[str] = None) -> int:
    from repro.analysis import lint
    from repro.analysis.rules import RULES

    if list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code} ({rule.name}): {rule.summary}")
        return 0
    status = (_missing("path", paths)
              or _missing("baseline file", [baseline_path])
              or _missing("witness file", [witness_path]))
    if status:
        return status
    witnesses = None
    if witness_path is not None:
        witnesses = lint.load_witnesses(witness_path)
    enable = lint.enabled_codes_from_pyproject()
    try:
        findings = lint.lint_paths(paths, enable=enable,
                                   witnesses=witnesses)
    except ConfigError as err:
        print(f"error: [tool.csar-lint] enable: {err}", file=sys.stderr)
        return 2
    if write_baseline_path is not None:
        lint.write_baseline(findings, write_baseline_path)
        print(f"wrote {len(findings)} baseline entr"
              f"{'y' if len(findings) == 1 else 'ies'} to "
              f"{write_baseline_path}")
        return 0
    suppressed = 0
    if baseline_path is None:
        # Auto-baseline: [tool.csar-lint] baseline in pyproject.toml,
        # silently skipped when the file is absent (e.g. a fresh clone
        # linting before the baseline has been generated).
        configured = lint.baseline_from_pyproject()
        if configured is not None and os.path.exists(configured):
            baseline_path = configured
    if baseline_path is not None:
        findings, suppressed = lint.apply_baseline(
            findings, lint.load_baseline(baseline_path))
    if fmt == "json":
        print(lint.format_json(findings))
    elif fmt == "sarif":
        print(lint.format_sarif(findings))
    else:
        if findings:
            print(lint.format_text(findings))
        if suppressed:
            print(f"{suppressed} baselined finding"
                  f"{'s' if suppressed != 1 else ''} suppressed")
    return 1 if findings else 0


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
    explore_p = sub.add_parser(
        "explore", help="systematically explore event schedules for "
                        "protocol violations (see docs/ANALYSIS.md)")
    explore_p.add_argument("scenario", nargs="?", default=None,
                           help="registered scenario name (see --list)")
    explore_p.add_argument("--strategy", choices=("dfs", "pct"),
                           default="dfs",
                           help="dfs = bounded systematic, pct = seeded "
                                "randomized (default: dfs)")
    explore_p.add_argument("--budget", type=int, default=64,
                           help="max schedules to execute (default 64)")
    explore_p.add_argument("--depth", type=int, default=12,
                           help="dfs: max decision points branched on "
                                "(default 12)")
    explore_p.add_argument("--seed", type=int, default=0,
                           help="pct: base random seed (default 0)")
    explore_p.add_argument("--smoke", action="store_true",
                           help="run every seeded-bug scenario; exit 1 "
                                "unless all are caught and replay "
                                "deterministically (the CI gate)")
    explore_p.add_argument("--sched-dir", default=None,
                           help="write violating schedules as .sched "
                                "files into this directory")
    explore_p.add_argument("--replay", default=None, dest="replay_path",
                           metavar="FILE",
                           help="re-run a saved .sched file and verify "
                                "the violation reproduces")
    explore_p.add_argument("--list", action="store_true",
                           dest="list_scenarios",
                           help="print every registered scenario and exit")
    explore_p.add_argument("--witness-file", default=None,
                           dest="witness_path", metavar="FILE",
                           help="save every LockSan order-inversion "
                                "observed during the run as a witness "
                                "file for 'lint --witnesses'")
    chaos_p = sub.add_parser(
        "chaos", help="run seed-deterministic fault-injection campaigns "
                      "with a differential oracle (see docs/FAULTS.md)")
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="single campaign seed (default 0)")
    chaos_p.add_argument("--seeds", default=None,
                         help="seed set: 'LO:HI' (half-open range) or a "
                              "comma list; overrides --seed")
    chaos_p.add_argument("--schemes", default=",".join(
                             ("raid0", "raid1", "raid5", "hybrid")),
                         help="comma list of schemes to sweep "
                              "(default: all four)")
    chaos_p.add_argument("--ops", type=int, default=10, dest="num_ops",
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
                              "bug is caught and runs are deterministic "
                              "(the CI gate)")
    chaos_p.add_argument("--matrix", action="store_true",
                         help="run the full crash-consistency matrix "
                              "(every server x every protocol step) for "
                              "raid5 and hybrid")
    lint_p = sub.add_parser(
        "lint", help="run the csar-lint static protocol checks")
    lint_p.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    lint_p.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="fmt",
                        help="output format (default: text)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print every rule code and exit")
    lint_p.add_argument("--baseline", default=None, dest="baseline_path",
                        metavar="FILE",
                        help="suppress findings recorded in this baseline "
                             "file; only new findings fail the run "
                             "(default: [tool.csar-lint] baseline from "
                             "pyproject.toml, when the file exists)")
    lint_p.add_argument("--write-baseline", default=None,
                        dest="write_baseline_path", metavar="FILE",
                        help="record every current finding into FILE and "
                             "exit 0 (accept the status quo)")
    lint_p.add_argument("--witnesses", default=None, dest="witness_path",
                        metavar="FILE",
                        help="LockSan witness file from 'explore "
                             "--witness-file'; CSAR011 findings name "
                             "their dynamic witness when one matches")
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
    if args.command == "lint":
        return _cmd_lint(args.paths, args.fmt, args.list_rules,
                         args.baseline_path,
                         args.write_baseline_path, args.witness_path)
    if args.command == "chaos":
        return _cmd_chaos(_parse_seeds(args.seed, args.seeds),
                          [s for s in args.schemes.split(",") if s],
                          args.num_ops, args.plan_dir, args.replay_path,
                          args.smoke, args.matrix)
    if args.command == "explore":
        return _cmd_explore(args.scenario, args.strategy, args.budget,
                            args.depth, args.seed, args.smoke,
                            args.sched_dir, args.replay_path,
                            args.list_scenarios, args.witness_path)
    return _cmd_run(args.ids, args.scale, args.csv_dir, args.sanitize)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
