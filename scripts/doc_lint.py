#!/usr/bin/env python3
"""Documentation lint for the library and its CLI.

    python scripts/doc_lint.py

Checks five invariants that keep the codebase navigable:

* every public module under ``src/repro`` (any ``.py`` whose name does not
  start with a single underscore, plus package ``__init__``/``__main__``
  files) opens with a module docstring;
* every CLI subcommand reachable from ``repro.cli.build_parser`` — at any
  nesting depth (``obs report``, ``cache stats``, …) — registers help text;
* the message table in ``docs/FABRIC.md`` (between the
  ``protocol-registry`` markers) matches the normative registry in
  ``repro.fabric.protocol.MESSAGES`` — same names, opcodes, directions,
  same order — so the written wire-protocol spec cannot drift from the
  implementation;
* README.md's run knobs match the run-configuration table
  (``repro.runconfig.KNOBS``): every table variable is documented, every
  ``REPRO_*`` name README mentions is in the table or one of the knobs
  that stay outside it, the flag table states each flag's default as the
  table does, and the "Environment knobs" paragraph (between the
  ``run-knobs`` markers) is exactly the one :func:`render_run_knobs`
  generates — so the knob docs cannot drift from the one table;
* every ``repro/…`` path that README.md, DESIGN.md, EXPERIMENTS.md or
  ``docs/*.md`` names — a file, a package, ``dir/*``, or a brace list
  such as ``repro/ir/{types,values}.py`` — exists under ``src/``, so a
  renamed or deleted module cannot leave its docs pointing at nothing.

Exits non-zero and lists the offenders if any check fails; CI runs it next
to ``trace_lint.py`` so undocumented modules and silent subcommands are
caught at the source.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def is_public_module(path: Path) -> bool:
    """Modules the docstring rule applies to."""
    name = path.stem
    if name in ("__init__", "__main__"):
        return True
    return not name.startswith("_")


def lint_module_docstrings(package_root: Path) -> list[str]:
    """Paths (repo-relative) of public modules missing a module docstring."""
    problems = []
    for path in sorted(package_root.rglob("*.py")):
        if not is_public_module(path):
            continue
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError as e:
            problems.append(f"{path.relative_to(ROOT)}: does not parse ({e})")
            continue
        if not ast.get_docstring(tree):
            problems.append(
                f"{path.relative_to(ROOT)}: missing module docstring"
            )
    return problems


def _walk_subcommands(parser: argparse.ArgumentParser, prefix: str):
    """Yield (qualified name, help text or None) for every subcommand."""
    for action in parser._actions:
        if not isinstance(action, argparse._SubParsersAction):
            continue
        helps = {c.dest: c.help for c in action._choices_actions}
        # Aliases (``fi`` for ``inject``) map to the same parser object as
        # the canonical name; credit them with the canonical help text.
        by_parser = {
            id(sub): helps[name]
            for name, sub in action.choices.items()
            if helps.get(name)
        }
        for name, sub in action.choices.items():
            qual = f"{prefix} {name}".strip()
            yield qual, helps.get(name) or by_parser.get(id(sub))
            yield from _walk_subcommands(sub, qual)


def lint_cli_help() -> list[str]:
    """Subcommands registered without help text."""
    from repro.cli import build_parser

    seen = {}
    for qual, help_text in _walk_subcommands(build_parser(), ""):
        seen.setdefault(qual, help_text)
    return [
        f"repro {qual}: subcommand registered without help text"
        for qual, help_text in sorted(seen.items())
        if not help_text
    ]


def _spec_table_rows(text: str) -> list[tuple[str, int, str]] | None:
    """Parse (name, opcode, direction) rows from FABRIC.md's marked table.

    Returns ``None`` when the markers are missing entirely (reported as its
    own problem). Separator and header rows are skipped; an unparsable
    opcode cell surfaces as a row with opcode ``-1`` so the comparison
    against the registry reports it.
    """
    begin = "<!-- protocol-registry:begin -->"
    end = "<!-- protocol-registry:end -->"
    if begin not in text or end not in text:
        return None
    section = text.split(begin, 1)[1].split(end, 1)[0]
    rows = []
    for line in section.splitlines():
        line = line.strip()
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) < 3 or set(cells[0]) <= {"-"} or cells[0] == "Message":
            continue
        try:
            opcode = int(cells[1], 16)
        except ValueError:
            opcode = -1
        rows.append((cells[0].strip("`"), opcode, cells[2]))
    return rows


def lint_fabric_spec() -> list[str]:
    """docs/FABRIC.md message-table drift against the protocol registry."""
    from repro.fabric.protocol import MESSAGES

    spec_path = ROOT / "docs" / "FABRIC.md"
    if not spec_path.exists():
        return ["docs/FABRIC.md: missing (the wire protocol is unspecified)"]
    rows = _spec_table_rows(spec_path.read_text())
    if rows is None:
        return [
            "docs/FABRIC.md: protocol-registry markers not found "
            "(<!-- protocol-registry:begin/end -->)"
        ]
    want = [(m.name, m.opcode, m.direction) for m in MESSAGES]
    if rows == want:
        return []
    problems = []
    documented = {r[0]: r for r in rows}
    registered = {w[0]: w for w in want}
    for name, row in sorted(documented.items()):
        if name not in registered:
            problems.append(
                f"docs/FABRIC.md: documents unregistered message {name!r}"
            )
        elif row != registered[name]:
            problems.append(
                f"docs/FABRIC.md: {name} documented as "
                f"(0x{row[1]:02x}, {row[2]!r}) but registered as "
                f"(0x{registered[name][1]:02x}, {registered[name][2]!r})"
            )
    for name in sorted(registered.keys() - documented.keys()):
        problems.append(
            f"docs/FABRIC.md: registered message {name} is undocumented"
        )
    if not problems:  # same set, different order
        problems.append(
            "docs/FABRIC.md: message table order differs from the registry"
        )
    return problems


#: ``REPRO_*`` variables that are not run knobs, so stay outside the
#: table: the cache size cap, the progress heartbeat, the bench history
#: and a process's chaos identity.
OUTSIDE_RUN_CONFIG = (
    "REPRO_CACHE_MAX_BYTES",
    "REPRO_PROGRESS_INTERVAL",
    "REPRO_BENCH_HISTORY",
    "REPRO_CHAOS_IDENTITY",
)

#: README flag-table rows of the run knobs: flag -> RunConfig field.
RUN_FLAGS = {
    "--workers": "workers",
    "--engine": "engine",
    "--batch-size": "batch_size",
    "--checkpoint-interval": "checkpoint_interval",
    "--cache-dir": "cache",
    "--max-retries": "max_retries",
    "--task-timeout": "task_timeout",
    "--transport": "transport",
    "--adapters": "addrs",
}


def flag_default(field: str) -> str:
    """A run flag's "Default" cell, from the table."""
    from repro.runconfig import KNOBS

    knob = KNOBS[field]
    if knob.env is None:
        return knob.default
    return f"`{knob.env}` env, else {knob.default}"


def render_run_knobs() -> str:
    """README's "Environment knobs" paragraph, from the table."""
    from repro.runconfig import KNOBS

    def cell(text: str) -> str:
        return text.replace("|", "\\|")

    rows = [
        f"| `{k.env}` | `{name}` | {cell(k.expects)} | {k.default} |"
        for name, k in KNOBS.items() if k.env
    ]
    lenient = [f"`{k.env}`" for k in KNOBS.values() if k.env and not k.strict]
    return "\n".join([
        "Environment knobs sit below every flag and scope (DESIGN.md "
        "§7.12):",
        "",
        "| Variable | Sets | Accepts | Default |",
        "|---|---|---|---|",
        *rows,
        "",
        f"A malformed {', '.join(lenient[:-1])} or {lenient[-1]} logs a "
        "warning and keeps the default; any other malformed value raises "
        "`ConfigError`.",
    ])


def lint_run_knobs() -> list[str]:
    """README.md's run-knob docs against the run-configuration table."""
    from repro.runconfig import KNOBS

    text = (ROOT / "README.md").read_text()
    table = {k.env for k in KNOBS.values() if k.env}
    mentioned = set(re.findall(r"\bREPRO_[A-Z][A-Z_]*", text))
    problems = [
        f"README.md: run knob {env} is undocumented"
        for env in sorted(table - mentioned)
    ]
    problems += [
        f"README.md: mentions {env}, which is neither in the run-"
        "configuration table nor one of OUTSIDE_RUN_CONFIG"
        for env in sorted(mentioned - table - set(OUTSIDE_RUN_CONFIG))
    ]
    for flag, field in RUN_FLAGS.items():
        row = re.search(rf"^\| `{flag}[ `].*\|([^|]*)\|\s*$", text, re.M)
        want = flag_default(field)
        if row is None:
            problems.append(f"README.md: no flag-table row for {flag}")
        elif row.group(1).strip() != want:
            problems.append(
                f"README.md: {flag} default reads {row.group(1).strip()!r}, "
                f"the table says {want!r}"
            )
    begin, end = "<!-- run-knobs:begin -->", "<!-- run-knobs:end -->"
    if begin not in text or end not in text:
        problems.append(f"README.md: {begin} / {end} markers not found")
    else:
        block = text.split(begin, 1)[1].split(end, 1)[0]
        if block.split() != render_run_knobs().split():
            problems.append(
                "README.md: the Environment knobs paragraph differs from "
                "the table; it should read:\n" + render_run_knobs()
            )
    return problems


#: The documents whose ``repro/…`` paths must resolve under ``src/``.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

#: A ``repro/…`` path: optional brace list, then ``.py`` or ``/*``. A
#: dotted attribute (``repro/obs/core.current``) ends the path at the dot.
_DOC_PATH = re.compile(
    r"(?<![\w.])repro/[\w/]*(?:\{[\w,]+\})?[\w/]*(?:\.py|(?<=/)\*)?"
)


def _expand_braces(path: str) -> list[str]:
    """``repro/ir/{a,b}.py`` -> ``[repro/ir/a.py, repro/ir/b.py]``."""
    m = re.search(r"\{([\w,]+)\}", path)
    if m is None:
        return [path]
    return [
        path[: m.start()] + name + path[m.end() :]
        for name in m.group(1).split(",")
    ]


def _doc_path_missing(path: str) -> bool:
    """Whether one named ``repro/…`` path is absent under src/."""
    target = SRC / path.removesuffix("/*").rstrip("/")
    if path.endswith(".py"):
        return not target.is_file()
    return not (target.is_dir() or target.with_suffix(".py").is_file())


def lint_doc_paths() -> list[str]:
    """``repro/…`` paths named in the docs that do not exist under src/."""
    problems = []
    for pattern in DOCS:
        for doc in sorted(ROOT.glob(pattern)):
            text = doc.read_text()
            for m in _DOC_PATH.finditer(text):
                missing = [
                    p for p in _expand_braces(m.group())
                    if _doc_path_missing(p)
                ]
                if missing:
                    line = text.count("\n", 0, m.start()) + 1
                    problems.append(
                        f"{doc.relative_to(ROOT)}:{line}: no "
                        f"{', '.join(missing)} under src/"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.parse_args(argv)

    problems = (
        lint_module_docstrings(SRC / "repro")
        + lint_cli_help()
        + lint_fabric_spec()
        + lint_run_knobs()
        + lint_doc_paths()
    )
    if problems:
        print(f"doc lint: {len(problems)} problem(s)")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("doc lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
