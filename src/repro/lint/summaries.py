"""Phase 1 of the whole-program analyzer: per-module summaries.

A :class:`ModuleSummary` is everything phase 2 (the call-graph linker,
:mod:`repro.lint.callgraph`) needs to know about one file — defined
functions and classes, the import/alias table, every call site, and the
"events" the interprocedural rules care about (module-state mutations,
non-injected RNG draws, tape operations, dtype coercions, raised
exception types).  Summaries are plain dataclasses.

One summary is produced by ONE extra walk of the same AST the per-file
rules already share, so the whole-program pass adds no parse.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Methods that mutate their receiver in place.  A call
#: ``X.<method>(...)`` where ``X`` resolves to a *module-level* name is
#: recorded as a module-state mutation candidate.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "appendleft", "popleft", "extendleft", "rotate",
})

#: numpy.random generator/seed constructors that are deterministic
#: *only* when given an explicit seed argument.
_SEEDABLE_FACTORIES = frozenset({
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
})

#: Callables that are nondeterministic by construction — any reachable
#: use inside a worker breaks bit-identity across worker counts.
_ENTROPY_SOURCES = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
})


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    Attributes:
        line: 1-based source line of the call.
        chain: dotted attribute chain when the call is rooted at a plain
            name (``service.submit``, ``np.asarray``, ``helper``);
            ``None`` when the root is itself an expression
            (``Clock().time()``).
        attr: final attribute for chains of length >= 2 and for
            non-name-rooted attribute calls — the hook for name-based
            method matching when the chain does not resolve.
        in_no_grad: the call is lexically inside a ``with no_grad():``
            block of this function (tape-free region, see TAPE001).
    """

    line: int
    chain: str | None
    attr: str | None
    in_no_grad: bool = False


@dataclass(frozen=True)
class Event:
    """One rule-relevant operation observed inside a function.

    Kinds: ``global-mutation`` (detail = dotted module-level target),
    ``unseeded-rng`` / ``entropy`` / ``global-rng`` (detail = qualname),
    ``backward`` / ``requires-grad`` (tape operations; ``in_no_grad``
    marks ones already inside a tape-free region), ``raise`` (detail = raw
    exception name chain or ``error_for_stage:<stage literal>``).
    """

    kind: str
    line: int
    detail: str = ""
    in_no_grad: bool = False


@dataclass
class FunctionSummary:
    """Summary of one function or method.

    Attributes:
        qualpath: module-local dotted path (``worker_main``,
            ``ScoringService.submit``, ``outer.inner``).
        name: bare function name.
        line: 1-based ``def`` line.
        cls: enclosing class name when this is a method, else ``None``.
        calls: every call site in the body (nested defs excluded — they
            get their own summaries).
        events: rule-relevant operations (see :class:`Event`).
        arg_types: parameter name -> identifiers appearing in its
            annotation (``registry: ModelRegistry`` -> ``["ModelRegistry"]``).
        local_types: local variable -> call chain it was assigned from
            (``service = _build_service(...)`` -> ``"_build_service"``) —
            the linker turns constructor calls and annotated returns
            into receiver types.
        return_type: identifiers appearing in the return annotation.
    """

    qualpath: str
    name: str
    line: int
    cls: str | None = None
    calls: list[CallSite] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    arg_types: dict[str, list[str]] = field(default_factory=dict)
    local_types: dict[str, str] = field(default_factory=dict)
    return_type: list[str] = field(default_factory=list)


@dataclass
class ClassSummary:
    """Summary of one class: bases, methods, annotated fields."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    fields: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything phase 2 needs to know about one module."""

    module: str
    rel_path: str
    imports: dict[str, str] = field(default_factory=dict)
    star_imports: list[str] = field(default_factory=list)
    module_names: list[str] = field(default_factory=list)
    exports: list[str] = field(default_factory=list)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)


# -- extraction -----------------------------------------------------------------------


def _chain_of(node: ast.expr) -> tuple[str | None, str | None]:
    """(dotted chain from a Name root, final attribute) of a call target."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain = ".".join([node.id, *reversed(parts)])
        return chain, (parts[0] if parts else None)
    return None, (parts[0] if parts else None)


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Identifier chains appearing in an annotation, longest first.

    ``Gnn3d | None`` -> ``["Gnn3d", "None"]``; ``dict[str, _Endpoint]``
    -> ``["_Endpoint", "dict", "str"]``; a string annotation is parsed.
    """
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Attribute, ast.Name)):
            chain, _attr = _chain_of(sub)
            if chain is not None and chain not in names:
                names.append(chain)
    names.sort(key=lambda chain: (-len(chain), chain))
    return names


class _ModuleVisitor(ast.NodeVisitor):
    """One walk of a module AST producing its :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self._class_stack: list[str] = []
        self._func_stack: list[FunctionSummary] = []
        self._locals_stack: list[set[str]] = []
        self._globals_stack: list[set[str]] = []
        self._no_grad_depth = 0
        # Calls executed at import time belong to a pseudo-function.
        module_fn = summary.functions.get("<module>")
        if module_fn is None:
            module_fn = FunctionSummary(
                qualpath="<module>", name="<module>", line=1)
            summary.functions["<module>"] = module_fn
        self._module_fn = module_fn

    # -- helpers ------------------------------------------------------------------

    @property
    def _fn(self) -> FunctionSummary:
        return self._func_stack[-1] if self._func_stack else self._module_fn

    def _qualified(self, chain: str) -> str | None:
        """Resolve a dotted chain's root through the import table."""
        root, _, rest = chain.partition(".")
        origin = self.summary.imports.get(root)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin

    def _is_local(self, name: str) -> bool:
        return bool(self._locals_stack) and name in self._locals_stack[-1]

    def _declared_global(self, name: str) -> bool:
        return bool(self._globals_stack) and name in self._globals_stack[-1]

    def _bind_local(self, target: ast.expr) -> None:
        if not self._locals_stack:
            return
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                if not self._declared_global(sub.id):
                    self._locals_stack[-1].add(sub.id)

    def _event(self, kind: str, line: int, detail: str = "") -> None:
        self._fn.events.append(Event(
            kind=kind, line=line, detail=detail,
            in_no_grad=self._no_grad_depth > 0))

    def _mutation_root(self, root: str) -> str | None:
        """Dotted module-level target of a mutation rooted at ``root``.

        Local names mutate local state (fine); a module-level name of
        this module resolves to ``<module>.<name>``; an imported name
        resolves through the import table.  Anything else (builtins,
        genuinely unknown globals) returns ``None``.
        """
        if self._is_local(root):
            return None
        if self._declared_global(root) or root in self.summary.module_names:
            return f"{self.summary.module}.{root}"
        return self.summary.imports.get(root)

    # -- scope bookkeeping --------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Decorator expressions evaluate in the enclosing scope.
        for deco in node.decorator_list:
            self.visit(deco)
        prefix = ""
        if self._func_stack:
            prefix = self._func_stack[-1].qualpath + "."
        elif self._class_stack:
            prefix = ".".join(self._class_stack) + "."
        fn = FunctionSummary(
            qualpath=prefix + node.name, name=node.name, line=node.lineno,
            cls=self._class_stack[-1] if self._class_stack else None)
        args = node.args
        local_names: set[str] = set()
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            local_names.add(arg.arg)
            names = _annotation_names(arg.annotation)
            if names:
                fn.arg_types[arg.arg] = names
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                local_names.add(vararg.arg)
        fn.return_type = _annotation_names(node.returns)
        self.summary.functions[fn.qualpath] = fn

        self._func_stack.append(fn)
        self._locals_stack.append(local_names)
        self._globals_stack.append(set())
        prev_no_grad, self._no_grad_depth = self._no_grad_depth, 0
        for default in (*args.defaults,
                        *[d for d in args.kw_defaults if d is not None]):
            self.visit(default)
        for stmt in node.body:
            self.visit(stmt)
        self._no_grad_depth = prev_no_grad
        self._func_stack.pop()
        self._locals_stack.pop()
        self._globals_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for deco in node.decorator_list:
            self.visit(deco)
        cls = ClassSummary(name=node.name, line=node.lineno)
        for base in node.bases:
            chain, _attr = _chain_of(base)
            if chain is not None:
                cls.bases.append(chain)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods.append(stmt.name)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                cls.fields[stmt.target.id] = _annotation_names(
                    stmt.annotation)
        if not self._class_stack and not self._func_stack:
            self.summary.classes[node.name] = cls
        self._class_stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self._class_stack.pop()

    # -- imports ------------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.summary.imports[alias.asname] = alias.name
            else:
                head = alias.name.split(".")[0]
                self.summary.imports[head] = head

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module
        if node.level:
            # Resolve a relative import against this module's package.
            parts = self.summary.module.split(".")
            if not self.summary.rel_path.endswith("__init__.py"):
                parts = parts[:-1]
            parts = parts[: len(parts) - (node.level - 1)]
            if not parts:
                return
            base = ".".join(parts)
            module = f"{base}.{module}" if module else base
        if module is None:
            return
        for alias in node.names:
            if alias.name == "*":
                if module not in self.summary.star_imports:
                    self.summary.star_imports.append(module)
                continue
            local = alias.asname or alias.name
            self.summary.imports[local] = f"{module}.{alias.name}"

    # -- statements ---------------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        if self._globals_stack:
            self._globals_stack[-1].update(node.names)
            for name in node.names:
                self._locals_stack[-1].discard(name)

    def _record_assign_target(self, target: ast.expr, line: int) -> None:
        """Module-state mutation via assignment to X / X.attr / X[k]."""
        if isinstance(target, ast.Name):
            if self._func_stack:
                # Only a declared `global X` rebind is a mutation —
                # a bare `X = v` in a function creates a local.
                if self._declared_global(target.id):
                    self._event("global-mutation", line,
                                f"{self.summary.module}.{target.id}")
                self._bind_local(target)
            else:
                if target.id not in self.summary.module_names:
                    self.summary.module_names.append(target.id)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            # The mutated *object* is the chain up to (excluding) the
            # final attribute / the subscripted expression.
            obj = target.value
            chain, _attr = _chain_of(obj)
            if chain is None:
                return
            segments = chain.split(".")
            dotted = self._mutation_root(segments[0])
            if self._func_stack and dotted is not None:
                full = ".".join([dotted, *segments[1:]])
                self._event("global-mutation", line, full)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_assign_target(elt, line)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._record_assign_target(target, node.lineno)
            if not isinstance(target, ast.Name):
                self.generic_visit(target)  # calls inside X[f(i)] = ...
        # Local type inference: `x = Ctor(...)` / `x = fn(...)`.
        if (self._func_stack and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            chain, _attr = _chain_of(node.value.func)
            if chain is not None:
                self._fn.local_types[node.targets[0].id] = chain

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._record_assign_target(node.target, node.lineno)
        if self._func_stack and isinstance(node.target, ast.Name):
            names = _annotation_names(node.annotation)
            if names:
                self._fn.local_types.setdefault(node.target.id, names[0])

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            if self._func_stack and self._declared_global(node.target.id):
                self._event("global-mutation", node.lineno,
                            f"{self.summary.module}.{node.target.id}")
            return
        self._record_assign_target(node.target, node.lineno)

    def visit_For(self, node: ast.For) -> None:
        self._bind_local(node.target)
        self.generic_visit(node)

    visit_AsyncFor = visit_For  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        is_no_grad = False
        for item in node.items:
            self.visit(item.context_expr)
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            chain, _attr = _chain_of(expr)
            if chain is not None and chain.split(".")[-1] == "no_grad":
                is_no_grad = True
            if item.optional_vars is not None:
                self._bind_local(item.optional_vars)
        if is_no_grad:
            self._no_grad_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if is_no_grad:
            self._no_grad_depth -= 1

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name and self._locals_stack:
            self._locals_stack[-1].add(node.name)
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if isinstance(exc, ast.Call):
            chain, _attr = _chain_of(exc.func)
            if chain is not None:
                if chain.split(".")[-1] == "error_for_stage":
                    stage = ""
                    if exc.args and isinstance(exc.args[0], ast.Constant):
                        stage = str(exc.args[0].value)
                    self._event("raise", node.lineno,
                                f"error_for_stage:{stage}")
                else:
                    self._event("raise", node.lineno, chain)
        elif isinstance(exc, (ast.Name, ast.Attribute)):
            chain, _attr = _chain_of(exc)
            if chain is not None and not self._is_local(chain.split(".")[0]):
                self._event("raise", node.lineno, chain)
        self.generic_visit(node)

    # -- calls and events ---------------------------------------------------------

    def _rng_event(self, node: ast.Call, qualified: str) -> None:
        if qualified in _ENTROPY_SOURCES:
            self._event("entropy", node.lineno, qualified)
            return
        if qualified in _SEEDABLE_FACTORIES:
            if not node.args and not node.keywords:
                self._event("unseeded-rng", node.lineno, qualified)
            return
        if qualified.startswith("numpy.random."):
            # Module-level global-state draw (RNG001's territory, but
            # recorded so WRK002 can attribute it to a worker path).
            self._event("global-rng", node.lineno, qualified)

    def visit_Call(self, node: ast.Call) -> None:
        chain, attr = _chain_of(node.func)
        self._fn.calls.append(CallSite(
            line=node.lineno, chain=chain, attr=attr,
            in_no_grad=self._no_grad_depth > 0))

        # -- events keyed on the callee -----------------------------------
        if chain is not None:
            qualified = self._qualified(chain) or chain
            self._rng_event(node, qualified)
            if attr in MUTATING_METHODS and "." in chain:
                segments = chain.split(".")
                dotted = self._mutation_root(segments[0])
                if self._func_stack and dotted is not None:
                    full = ".".join([dotted, *segments[1:-1]])
                    self._event("global-mutation", node.lineno, full)
        if attr == "backward":
            self._event("backward", node.lineno, ".backward()")

        # -- keyword-carried events ----------------------------------------
        for keyword in node.keywords:
            if keyword.arg == "requires_grad":
                if (isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True):
                    self._event("requires-grad", node.lineno,
                                "requires_grad=True")
        self.generic_visit(node)


def _collect_module_names(tree: ast.Module, summary: ModuleSummary) -> None:
    """Pre-pass: module-level names, so function bodies that appear
    *before* a module-level assignment still resolve mutations of it."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            if stmt.name not in summary.module_names:
                summary.module_names.append(stmt.name)
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    if sub.id not in summary.module_names:
                        summary.module_names.append(sub.id)


def _collect_exports(tree: ast.Module, summary: ModuleSummary) -> None:
    """Record ``__all__`` string entries as the module's public exports."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in stmt.targets):
            continue
        if isinstance(stmt.value, (ast.List, ast.Tuple)):
            for elt in stmt.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str):
                    if elt.value not in summary.exports:
                        summary.exports.append(elt.value)


def summarize_module(tree: ast.Module, module: str,
                     rel_path: str) -> ModuleSummary:
    """Produce the :class:`ModuleSummary` of one parsed module."""
    summary = ModuleSummary(module=module, rel_path=rel_path)
    _collect_module_names(tree, summary)
    _collect_exports(tree, summary)
    visitor = _ModuleVisitor(summary)
    # Imports go on the table first (including function-local ones, to
    # match FileContext.record_imports): bodies that call through an
    # alias textually above its import still resolve.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            visitor.visit_Import(node)
        elif isinstance(node, ast.ImportFrom):
            visitor.visit_ImportFrom(node)
    for stmt in tree.body:
        visitor.visit(stmt)
    return summary
