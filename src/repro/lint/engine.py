"""The lint engine: two phases — per-file rules, then whole-program.

Phase 1 parses each file once, builds the import table, walks the AST
a single time dispatching each node to every per-file rule that
registered a ``visit_<NodeType>`` handler, and extracts the module's
:class:`~repro.lint.summaries.ModuleSummary` from the same tree.

Phase 2 links the summaries into a project call graph
(:mod:`repro.lint.callgraph`) and runs the interprocedural rules
(:mod:`repro.lint.rules.wholeprogram`).  Graph findings are anchored
at real source lines, so the same inline suppressions apply.

Suppression matching honors *decorator line groups*: a finding anchored
at a decorator line of a ``def`` is suppressed by a directive on the
``def`` line and vice versa (the decoration is one statement; the
directive should not care which physical line the rule picked).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from repro.lint.baseline import Baseline, load_baseline
from repro.lint.callgraph import Project
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import all_rules
from repro.lint.rules.base import FileContext, Rule
from repro.lint.rules.wholeprogram import (
    GraphRule,
    ProjectContext,
    all_graph_rules,
)
from repro.lint.summaries import ModuleSummary, summarize_module
from repro.lint.suppress import Suppressions, parse_suppressions

#: Rule id used for files that fail to parse; not suppressible via
#: select/ignore because an unparseable file checks nothing at all.
PARSE_ERROR_ID = "PARSE000"


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` invocation.

    Attributes:
        findings: NEW findings (not suppressed, not baselined), sorted.
        baselined: findings matched by the committed baseline.
        stale_baseline: baseline entries that no longer match anything —
            the baseline can be ratcheted down by these.
        files_checked: number of files parsed.
        suppressed: number of findings silenced by inline directives.
    """

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: set[str] = field(default_factory=set)
    files_checked: int = 0
    suppressed: int = 0
    #: The linked call-graph project (phase 2 input); exposed so the
    #: CLI can regenerate docs/EXCEPTIONS.md from the same analysis.
    project: Project | None = None

    @property
    def clean(self) -> bool:
        return not self.findings


def _module_name(rel_path: str) -> str | None:
    """Dotted module for a repo-relative path (``src/`` layout aware)."""
    parts = Path(rel_path).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def _dispatch_table(rules: list[Rule]) -> dict[type, list]:
    table: dict[type, list] = {}
    for rule in rules:
        for node_type, method_name in rule.visitors():
            table.setdefault(node_type, []).append(
                (rule, getattr(rule, method_name)))
    return table


def _walk(node: ast.AST, table: dict[type, list], ctx: FileContext) -> None:
    handlers = table.get(type(node))
    if handlers:
        for _rule, method in handlers:
            method(node, ctx)
    ctx.parent_stack.append(node)
    for child in ast.iter_child_nodes(node):
        _walk(child, table, ctx)
    ctx.parent_stack.pop()


def decorator_line_groups(tree: ast.AST) -> dict[int, tuple[int, ...]]:
    """Line-equivalence groups for suppression matching.

    For every decorated ``def``/``class``, the decorator lines and the
    ``def`` line form one group: a suppression on any member line
    covers a finding anchored at any other member line.
    """
    groups: dict[int, tuple[int, ...]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.decorator_list:
            continue
        lines = tuple(sorted({node.lineno,
                              *(d.lineno for d in node.decorator_list)}))
        for line in lines:
            groups[line] = lines
    return groups


def _is_suppressed(suppressions: Suppressions,
                   groups: dict[int, tuple[int, ...]],
                   rule_id: str, line: int) -> bool:
    for member in groups.get(line, (line,)):
        if suppressions.is_suppressed(rule_id, member):
            return True
    return False


def _analyze_source(source: str, rel_path: str, module: str | None,
                    rules: list[Rule],
                    ) -> tuple[list[Finding], int, ModuleSummary | None]:
    """Parse + lint + summarize one source string (one parse total).

    Returns (kept findings, suppressed count, summary); the summary is
    ``None`` for parse errors and for files outside any module path.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        line = exc.lineno or 1
        finding = Finding(
            path=rel_path, line=line, col=(exc.offset or 0) + 1,
            rule_id=PARSE_ERROR_ID,
            message=f"file does not parse: {exc.msg}",
            line_text="")
        return [finding], 0, None
    ctx = FileContext(rel_path, source, module=module)
    ctx.record_imports(tree)
    _walk(tree, _dispatch_table(rules), ctx)
    suppressions = parse_suppressions(source)
    groups = decorator_line_groups(tree)
    kept = [f for f in ctx.findings
            if not _is_suppressed(suppressions, groups, f.rule_id, f.line)]
    summary = None
    if module is not None:
        summary = summarize_module(tree, module, rel_path)
    return sorted(kept), len(ctx.findings) - len(kept), summary


def lint_source(source: str, rel_path: str, rules: list[Rule] | None = None,
                module: str | None = None) -> tuple[list[Finding], int]:
    """Lint one source string; returns (findings, suppressed count).

    ``module`` overrides the dotted-module guess — tests use it to put
    fixture files "inside" a package-scoped rule's jurisdiction.
    """
    if rules is None:
        rules = all_rules()
    if module is None:
        module = _module_name(rel_path)
    findings, suppressed, _summary = _analyze_source(
        source, rel_path, module, rules)
    return findings, suppressed


def lint_file(path: str | Path, root: str | Path,
              rules: list[Rule] | None = None,
              module: str | None = None) -> tuple[list[Finding], int]:
    """Lint one file; paths in findings are relative to ``root``."""
    path, root = Path(path), Path(root)
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    source = path.read_text(encoding="utf-8")
    return lint_source(source, rel, rules=rules, module=module)


def iter_python_files(paths: list[Path],
                      root: Path,
                      exclude: tuple[str, ...] = ()) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    kept = []
    for path in sorted(out):
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        if any(fnmatch(rel, pattern) for pattern in exclude):
            continue
        kept.append(path)
    return kept


def _fill_and_filter_graph_findings(
        raw: list[Finding], sources: dict[str, str],
        root: Path | None) -> tuple[list[Finding], int]:
    """Attach line text to graph findings and apply suppressions.

    Graph rules emit findings with empty ``line_text`` (they work on
    summaries, not sources); this re-reads only the *flagged* files to
    fill the text and honor inline directives + decorator groups.
    """
    kept: list[Finding] = []
    suppressed = 0
    per_file: dict[str, tuple[list[str], Suppressions,
                              dict[int, tuple[int, ...]]]] = {}
    for finding in raw:
        state = per_file.get(finding.path)
        if state is None:
            source = sources.get(finding.path)
            if source is None and root is not None:
                try:
                    source = (root / finding.path).read_text(
                        encoding="utf-8")
                except OSError:
                    source = None
            if source is None:
                state = ([], Suppressions(), {})
            else:
                try:
                    groups = decorator_line_groups(ast.parse(source))
                except SyntaxError:
                    groups = {}
                state = (source.splitlines(), parse_suppressions(source),
                         groups)
            per_file[finding.path] = state
        lines, suppressions, groups = state
        if _is_suppressed(suppressions, groups, finding.rule_id,
                          finding.line):
            suppressed += 1
            continue
        text = ""
        if 1 <= finding.line <= len(lines):
            text = lines[finding.line - 1].strip()
        kept.append(Finding(
            path=finding.path, line=finding.line, col=finding.col,
            rule_id=finding.rule_id, message=finding.message,
            line_text=text))
    return sorted(kept), suppressed


def build_project(summaries: dict[str, ModuleSummary]) -> Project:
    """Link module summaries into a call-graph project (phase 2)."""
    return Project(summaries)


def lint_project_sources(
        files: list[tuple[str, str, str]],
        graph_rules: list[GraphRule] | None = None,
        exceptions_doc: str | None = None) -> list[Finding]:
    """Run the whole-program rules over in-memory sources (test helper).

    ``files`` is a list of ``(rel_path, module, source)`` triples; the
    module name places a fixture "inside" a rule's jurisdiction (e.g.
    ``repro.perf.parallel`` to make its ``_worker_run`` an entry point).
    Inline suppressions in the sources apply as usual.
    """
    summaries: dict[str, ModuleSummary] = {}
    sources: dict[str, str] = {}
    for rel, module, source in files:
        tree = ast.parse(source)
        summaries[module] = summarize_module(tree, module, rel)
        sources[rel] = source
    project = Project(summaries)
    context = ProjectContext(root=None, exceptions_doc=exceptions_doc)
    rules = graph_rules if graph_rules is not None else all_graph_rules()
    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(project, context))
    kept, _suppressed = _fill_and_filter_graph_findings(raw, sources, None)
    return kept


def run_lint(paths: list[str | Path] | None = None,
             config: LintConfig | None = None,
             rules: list[Rule] | None = None,
             baseline: Baseline | None = None,
             *,
             graph_rules: list[GraphRule] | None = None,
             whole_program: bool = True,
             project_context: ProjectContext | None = None) -> LintResult:
    """Lint ``paths`` (default: the configured targets) end to end.

    Args:
        graph_rules: interprocedural rules for phase 2 (default: all
            registered, minus the config's ignore set).
        whole_program: set False to skip phase 2 entirely.
    """
    config = config if config is not None else LintConfig()
    root = config.root
    if rules is None:
        rules = all_rules(ignore=config.ignored())
    if graph_rules is None and whole_program:
        graph_rules = all_graph_rules(ignore=config.ignored())
    targets = [Path(p) if Path(p).is_absolute() else root / p
               for p in (paths or config.paths)]
    if baseline is None:
        baseline_path = config.baseline_path()
        baseline = (load_baseline(baseline_path)
                    if baseline_path is not None else Baseline())

    result = LintResult()
    collected: list[Finding] = []
    summaries: dict[str, ModuleSummary] = {}
    sources: dict[str, str] = {}
    for path in iter_python_files(targets, root, config.exclude):
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        source = path.read_text(encoding="utf-8")
        sources[rel] = source
        result.files_checked += 1
        findings, suppressed, summary = _analyze_source(
            source, rel, _module_name(rel), rules)
        collected.extend(findings)
        result.suppressed += suppressed
        if summary is not None:
            summaries[summary.module] = summary

    # -- phase 2: link + interprocedural rules ---------------------------------
    project = build_project(summaries) if summaries else None
    result.project = project
    if whole_program and graph_rules and project is not None:
        context = project_context if project_context is not None \
            else ProjectContext(root=root)
        raw: list[Finding] = []
        for rule in graph_rules:
            raw.extend(rule.check(project, context))
        kept, suppressed = _fill_and_filter_graph_findings(
            raw, sources, root)
        collected.extend(kept)
        result.suppressed += suppressed

    new, matched, stale = baseline.partition(collected)
    result.findings = new
    result.baselined = matched
    result.stale_baseline = stale
    return result
