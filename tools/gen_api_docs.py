#!/usr/bin/env python3
"""Generate docs/API.md: every public module, class, and function of
``repro`` with its signature and docstring summary.

Run from the repository root::

    python tools/gen_api_docs.py

The output is checked in so the reference is readable without running
anything; CI (or a pre-release pass) regenerates it to catch drift —
``tests/test_api_docs.py`` asserts the checked-in file is current.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path


#: module-level name registries, rendered as a table of names and docs
REGISTRIES = {"repro.probes": "PROBES"}


def iter_modules(package_name: str = "repro"):
    package = importlib.import_module(package_name)
    yield package_name
    for info in pkgutil.walk_packages(package.__path__,
                                      prefix=f"{package_name}."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        yield info.name


def summary(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n")[0].replace("\n", " ").strip()
    return first


def signature_of(obj) -> str:
    import re

    try:
        text = str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"
    # Strip memory addresses from default-value reprs (nondeterministic)
    # and truncate pathological defaults.
    text = re.sub(r" at 0x[0-9a-f]+", "", text)
    if len(text) > 400:
        text = text[:397] + "..."
    return text


def public_members(module):
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are documented where they live
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by "
        "hand.",
        "",
    ]
    for module_name in iter_modules():
        module = importlib.import_module(module_name)
        members = list(public_members(module))
        registry = REGISTRIES.get(module_name)
        if not members and registry is None and module_name != "repro":
            continue
        lines.append(f"## `{module_name}`")
        lines.append("")
        mod_summary = summary(module)
        if mod_summary:
            lines.append(mod_summary)
            lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"### `{kind} {name}{signature_of(obj)}`")
            lines.append("")
            text = summary(obj)
            if text:
                lines.append(text)
                lines.append("")
            if inspect.isclass(obj):
                for m_name, member in sorted(vars(obj).items()):
                    if m_name.startswith("_"):
                        continue
                    if not (inspect.isfunction(member)
                            or isinstance(member, (staticmethod,
                                                   classmethod))):
                        continue
                    func = member
                    if isinstance(member, (staticmethod, classmethod)):
                        func = member.__func__
                    lines.append(
                        f"- `{m_name}{signature_of(func)}` — "
                        f"{summary(func) or '(undocumented)'}")
                lines.append("")
        if registry is not None:
            lines += [f"### `{registry}`", "", "| name | doc |", "|---|---|"]
            lines += [f"| `{name}` | {doc} |"
                      for name, doc in getattr(module, registry).items()]
            lines.append("")
    return "\n".join(lines) + "\n"


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    out = root / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    text = render()
    if len(sys.argv) > 1 and sys.argv[1] == "--check":
        if not out.exists() or out.read_text() != text:
            print("docs/API.md is stale; run python tools/gen_api_docs.py")
            return 1
        print("docs/API.md is current")
        return 0
    out.write_text(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
