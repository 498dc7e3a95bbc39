"""The reachability census: every module under ``src/repro`` is imported,
directly or transitively, by something that runs — the CLI, a registered
experiment, or the benchmark — or it is on the ROADMAP with an owner.

The closure is static: every ``import`` / ``from ... import`` anywhere in
a module's source, function-local ones included (the CLI imports its
subcommands lazily), plus any string constant that names a module (the
sanitizer table resolves ``"repro.analysis.locksan"`` through
``importlib``).  Importing a submodule runs its packages' ``__init__``,
so those count as reached too.  A new orphan, or a kept module that
becomes reached, changes the unreached set and fails this test, so the
next census is a diff of it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: reached by nothing that runs today, each kept for a ROADMAP item
KEPT_UNREACHED = {
    # the Section 6.7 overflow reclaimer: ROADMAP item 12(c) and `ext-reclaim`
    "repro.redundancy.reclaim",
    # the IOR-like synthetic workload: ROADMAP item 1(b)'s Poisson driver
    "repro.workloads.synthetic",
}


def _module_files():
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imports(path: Path, modules) -> set:
    """The ``repro`` modules one source file names, with their packages.
    (The tree has no relative imports; one would show up here as a
    missed edge, so as a false orphan, never as a hidden one.)"""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module)
            named.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)
    reached = set()
    for target in named & modules.keys():
        parts = target.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return reached


def _unreached():
    modules = _module_files()
    roots = {"repro.cli", "repro.__main__"}
    roots.update(m for m in modules if m.startswith("repro.experiments."))
    reached = set()
    for bench_file in ("run", "harness", "workloads"):
        reached |= _imports(ROOT / "bench" / f"{bench_file}.py", modules)
    frontier = set(roots) | reached
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= _imports(modules[name], modules) - reached
    return set(modules) - reached


def test_every_module_is_reached_or_owned():
    unreached = _unreached()
    assert unreached == KEPT_UNREACHED, (
        f"reached by nothing that runs: {sorted(unreached - KEPT_UNREACHED)}; "
        f"kept as unreached but now reached: "
        f"{sorted(KEPT_UNREACHED - unreached)}")
