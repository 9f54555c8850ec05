"""CLI entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 clean, 1 findings (or stale baseline entries under
``--strict-baseline``, or the ``--max-seconds`` wall-time gate blown),
2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.lint.baseline import write_baseline
from repro.lint.config import load_config
from repro.lint.engine import run_lint
from repro.lint.output import FORMATS, render
from repro.lint.rules import all_graph_rules, all_rules, rule_catalog
from repro.lint.rules.wholeprogram import EXCEPTIONS_DOC, render_exceptions_md


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant linter for the repro codebase")
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: [tool.repro-lint] paths)")
    parser.add_argument(
        "--root", default=".",
        help="repository root holding pyproject.toml (default: cwd)")
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="output format (default: text)")
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run exclusively")
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip (adds to config ignore)")
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file (default: [tool.repro-lint] baseline)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline; report every finding")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings as the new baseline and exit 0")
    parser.add_argument(
        "--strict-baseline", action="store_true",
        help="also fail (exit 1) when the baseline has stale entries")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    parser.add_argument(
        "--no-whole-program", action="store_true",
        help="skip phase 2 (call-graph rules); per-file rules only")
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="fail (exit 1) when the analyzer wall time exceeds S seconds")
    parser.add_argument(
        "--write-exceptions", action="store_true",
        help=f"regenerate {EXCEPTIONS_DOC} from the call graph and exit")
    return parser


def _split_ids(raw: str | None) -> set[str] | None:
    if raw is None:
        return None
    return {part.strip() for part in raw.split(",") if part.strip()}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for entry in rule_catalog():
            print(f"{entry['id']}  {entry['name']} [{entry['scope']}]: "
                  f"{entry['invariant']}")
        return 0

    try:
        config = load_config(Path(args.root))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.baseline is not None:
        config.baseline = args.baseline
    if args.no_baseline:
        config.baseline = None

    select = _split_ids(args.select)
    ignore = (config.ignored() | (_split_ids(args.ignore) or set()))
    rules = all_rules(select=select, ignore=ignore)
    whole_program = not args.no_whole_program
    graph_rules = (all_graph_rules(select=select, ignore=ignore)
                   if whole_program else [])
    if not rules and not graph_rules:
        print("error: no rules selected", file=sys.stderr)
        return 2

    start = time.perf_counter()
    result = run_lint(paths=args.paths or None, config=config, rules=rules,
                      graph_rules=graph_rules,
                      whole_program=whole_program and bool(graph_rules))
    elapsed = time.perf_counter() - start

    if args.write_exceptions:
        if result.project is None:
            print("error: no modules analyzed; cannot generate "
                  f"{EXCEPTIONS_DOC}", file=sys.stderr)
            return 2
        target = config.root / EXCEPTIONS_DOC
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(render_exceptions_md(result.project),
                          encoding="utf-8")
        print(f"wrote {target}")
        return 0

    if args.write_baseline:
        target = config.baseline_path()
        if target is None:
            print("error: --write-baseline needs a baseline path "
                  "(--baseline or [tool.repro-lint] baseline)",
                  file=sys.stderr)
            return 2
        # findings here are the ones NOT already baselined; merge both
        # sets so regeneration is stable.
        write_baseline(target, result.findings + result.baselined)
        print(f"wrote {len(result.findings) + len(result.baselined)} "
              f"entries to {target}")
        return 0

    print(render(result, args.fmt))
    print(f"analyzer wall time: {elapsed:.2f}s"
          + (f" (limit {args.max_seconds:.0f}s)"
             if args.max_seconds is not None else ""),
          file=sys.stderr)
    if result.findings:
        return 1
    if args.strict_baseline and result.stale_baseline:
        return 1
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(f"error: analyzer wall time {elapsed:.2f}s exceeded "
              f"--max-seconds {args.max_seconds:.0f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
