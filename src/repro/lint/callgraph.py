"""Phase 2 of the whole-program analyzer: link summaries into a call graph.

A :class:`Project` takes the per-module summaries produced by
:mod:`repro.lint.summaries` and builds

* a project-wide symbol table with import-alias resolution that follows
  re-exports through package ``__init__`` modules and star imports
  (with a cycle guard, so mutually importing modules terminate);
* a class hierarchy (bases resolved through the same table) used for
  CHA-style virtual dispatch of ``self.method()`` calls;
* a call-graph whose edges carry a *kind*:

  - ``direct``  — the callee resolved statically (module function,
    imported symbol, or a receiver whose class is known from a
    parameter annotation / ``x = Ctor(...)`` local inference /
    dataclass field annotation);
  - ``self``    — virtual dispatch on ``self``/``cls`` (the defining
    class plus every subclass that overrides);
  - ``ctor``    — instantiation ``Cls(...)`` linking to ``__init__`` /
    ``__post_init__`` / ``__new__``;
  - ``attr``    — name-match fallback: ``x.foo()`` on an unknown
    receiver links to every method named ``foo`` in the project.
    Dunder names are excluded, which keeps the over-approximation
    bounded (no edge to every ``__init__`` from every call).

Rules choose which kinds to follow: the purity rules (WRK/TAPE/PRE)
follow all four for soundness; EXC101 follows only
``direct``/``self``/``ctor`` so the documented exception table is not
polluted by name-coincidence edges.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .summaries import ClassSummary, FunctionSummary, ModuleSummary

#: All edge kinds, in the order rules usually request them.
EDGE_KINDS = ("direct", "self", "ctor", "attr")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@dataclass(frozen=True)
class Symbol:
    """A resolved name: ``kind`` is ``module`` / ``func`` / ``class``;
    ``key`` is the module name, function node key (``module:qualpath``)
    or class key (``module:ClassName``)."""

    kind: str
    key: str


@dataclass(frozen=True)
class Edge:
    """One call edge; ``line`` is the call site in ``src``'s module."""

    src: str
    dst: str
    kind: str
    line: int


class Project:
    """Linked whole-program view over a set of module summaries."""

    def __init__(self, summaries: Mapping[str, ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = dict(summaries)
        #: node key ``module:qualpath`` -> function summary
        self.functions: dict[str, FunctionSummary] = {}
        #: class key ``module:ClassName`` -> class summary
        self.classes: dict[str, ClassSummary] = {}
        self.node_module: dict[str, str] = {}
        for mod, summ in self.modules.items():
            for qualpath, fn in summ.functions.items():
                key = f"{mod}:{qualpath}"
                self.functions[key] = fn
                self.node_module[key] = mod
            for name, cls in summ.classes.items():
                self.classes[f"{mod}:{name}"] = cls

        self._bases: dict[str, list[str]] = {}
        self._subclasses: dict[str, set[str]] = defaultdict(set)
        self._build_hierarchy()

        # Name-match index for ``attr`` edges: bare method name -> nodes.
        self._method_index: dict[str, list[str]] = defaultdict(list)
        for key in sorted(self.functions):
            fn = self.functions[key]
            if fn.cls is not None and not _is_dunder(fn.name):
                self._method_index[fn.name].append(key)

        self._adj: dict[str, list[Edge]] = defaultdict(list)
        self._build_edges()

    # -- symbol resolution --------------------------------------------------------

    def resolve(self, dotted: str,
                _seen: set[tuple[str, tuple[str, ...]]] | None = None,
                ) -> Symbol | None:
        """Resolve a fully-qualified dotted name to a project symbol.

        Follows import aliases and ``__init__`` re-exports; names that
        leave the analyzed module set (``numpy.*`` …) resolve to None.
        """
        if dotted in self.modules:
            return Symbol("module", dotted)
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            if module in self.modules:
                return self._resolve_parts(
                    module, tuple(parts[i:]), _seen if _seen is not None
                    else set())
        return None

    def resolve_in(self, module: str, chain: str) -> Symbol | None:
        """Resolve a dotted chain as it appears inside ``module``."""
        if module not in self.modules:
            return self.resolve(chain)
        return self._resolve_parts(module, tuple(chain.split(".")), set())

    def _resolve_parts(self, module: str, parts: tuple[str, ...],
                       seen: set[tuple[str, tuple[str, ...]]],
                       ) -> Symbol | None:
        key = (module, parts)
        if key in seen:
            return None
        seen.add(key)
        summ = self.modules.get(module)
        if summ is None or not parts:
            return None
        qualpath = ".".join(parts)
        if qualpath in summ.functions:
            return Symbol("func", f"{module}:{qualpath}")
        if parts[0] in summ.classes:
            if len(parts) == 1:
                return Symbol("class", f"{module}:{parts[0]}")
            if len(parts) == 2:
                # Possibly an inherited method: Cls.method.
                node = self._lookup_method(f"{module}:{parts[0]}", parts[1])
                if node is not None:
                    return Symbol("func", node)
            return None
        if parts[0] in summ.imports:
            target = summ.imports[parts[0]]
            dotted = ".".join([target, *parts[1:]])
            return self.resolve(dotted, seen)
        for star in summ.star_imports:
            found = self._resolve_parts(star, parts, seen)
            if found is not None:
                return found
        return None

    # -- class hierarchy ----------------------------------------------------------

    def _build_hierarchy(self) -> None:
        for ckey in sorted(self.classes):
            module = ckey.split(":", 1)[0]
            resolved: list[str] = []
            for base in self.classes[ckey].bases:
                sym = self.resolve_in(module, base)
                if sym is not None and sym.kind == "class":
                    resolved.append(sym.key)
                    self._subclasses[sym.key].add(ckey)
            self._bases[ckey] = resolved

    def ancestors(self, class_key: str) -> list[str]:
        """Proper ancestors of a class, nearest first (cycle-safe)."""
        out: list[str] = []
        seen = {class_key}
        queue = deque(self._bases.get(class_key, ()))
        while queue:
            base = queue.popleft()
            if base in seen:
                continue
            seen.add(base)
            out.append(base)
            queue.extend(self._bases.get(base, ()))
        return out

    def subclasses(self, class_key: str) -> set[str]:
        """All transitive subclasses of a class (cycle-safe)."""
        out: set[str] = set()
        queue = deque(self._subclasses.get(class_key, ()))
        while queue:
            sub = queue.popleft()
            if sub in out:
                continue
            out.add(sub)
            queue.extend(self._subclasses.get(sub, ()))
        return out

    def is_subclass_of(self, class_key: str, root_key: str) -> bool:
        return class_key == root_key or root_key in self.ancestors(class_key)

    def _lookup_method(self, class_key: str, name: str) -> str | None:
        """Resolve a method on a class, walking up the bases (MRO-ish)."""
        seen: set[str] = set()
        queue = deque([class_key])
        while queue:
            ckey = queue.popleft()
            if ckey in seen:
                continue
            seen.add(ckey)
            cls = self.classes.get(ckey)
            if cls is not None and name in cls.methods:
                module = ckey.split(":", 1)[0]
                return f"{module}:{cls.name}.{name}"
            queue.extend(self._bases.get(ckey, ()))
        return None

    def method_targets(self, class_key: str, name: str) -> list[str]:
        """CHA dispatch: the method as defined on the class (possibly
        inherited) plus every subclass override."""
        targets: list[str] = []
        for ckey in (class_key, *sorted(self.subclasses(class_key))):
            node = self._lookup_method(ckey, name)
            if node is not None and node not in targets:
                targets.append(node)
        return targets

    # -- edge construction --------------------------------------------------------

    def _ctor_targets(self, class_key: str) -> list[str]:
        targets: list[str] = []
        for hook in ("__init__", "__post_init__", "__new__"):
            node = self._lookup_method(class_key, hook)
            if node is not None and node not in targets:
                targets.append(node)
        return targets

    def _resolve_scoped(self, module: str, fn: FunctionSummary,
                        chain: str) -> Symbol | None:
        """Resolve ``chain`` seen from inside ``fn``: nested-function
        scopes first (``outer`` calling ``inner`` -> ``outer.inner``),
        then the module namespace."""
        summ = self.modules.get(module)
        if summ is not None:
            holder = fn.qualpath.split(".")
            for i in range(len(holder), 0, -1):
                prefix = ".".join(holder[:i])
                if prefix not in summ.functions:
                    continue  # class scopes don't leak into methods
                candidate = f"{prefix}.{chain}"
                if candidate in summ.functions:
                    return Symbol("func", f"{module}:{candidate}")
        return self.resolve_in(module, chain)

    def _root_class(self, module: str, fn: FunctionSummary,
                    root: str) -> str | None:
        """Class of a receiver variable, from its parameter annotation
        or a ``x = Ctor(...)`` / annotated-return local assignment."""
        for name in fn.arg_types.get(root, ()):
            sym = self.resolve_in(module, name)
            if sym is not None and sym.kind == "class":
                return sym.key
        source = fn.local_types.get(root)
        if source is not None:
            sym = self._resolve_scoped(module, fn, source)
            if sym is not None:
                if sym.kind == "class":
                    return sym.key
                if sym.kind == "func":
                    callee = self.functions[sym.key]
                    callee_mod = sym.key.split(":", 1)[0]
                    for name in callee.return_type:
                        ret = self.resolve_in(callee_mod, name)
                        if ret is not None and ret.kind == "class":
                            return ret.key
        return None

    def _field_class(self, class_key: str, field_name: str) -> str | None:
        """Class of an annotated field, searching inherited fields too."""
        for ckey in (class_key, *self.ancestors(class_key)):
            cls = self.classes.get(ckey)
            if cls is None:
                continue
            names = cls.fields.get(field_name)
            if not names:
                continue
            module = ckey.split(":", 1)[0]
            for name in names:
                sym = self.resolve_in(module, name)
                if sym is not None and sym.kind == "class":
                    return sym.key
        return None

    def _typed_chain_targets(self, class_key: str,
                             rest: tuple[str, ...]) -> list[str]:
        """Dispatch ``recv.a.b.m()`` once the receiver's class is known:
        intermediate segments walk annotated fields; the final segment
        is a method, or a callable-class field (-> its ``__call__``)."""
        if not rest:  # the receiver itself is called: instance __call__
            return self.method_targets(class_key, "__call__")
        for part in rest[:-1]:
            next_key = self._field_class(class_key, part)
            if next_key is None:
                return []
            class_key = next_key
        last = rest[-1]
        targets = self.method_targets(class_key, last)
        if targets:
            return targets
        field_key = self._field_class(class_key, last)
        if field_key is not None:
            return self.method_targets(field_key, "__call__")
        return []

    def _call_targets(self, module: str, fn: FunctionSummary, chain,
                      attr) -> list[tuple[str, str]]:
        if chain is None:
            if attr is not None and not _is_dunder(attr):
                return [(t, "attr") for t in self._method_index.get(attr, ())]
            return []
        parts = tuple(chain.split("."))
        root = parts[0]
        if root in ("self", "cls") and fn.cls is not None and len(parts) >= 2:
            targets = self._typed_chain_targets(f"{module}:{fn.cls}",
                                                parts[1:])
            if targets:
                return [(t, "self") for t in targets]
            if attr is not None and not _is_dunder(attr):
                return [(t, "attr") for t in self._method_index.get(attr, ())]
            return []
        receiver = self._root_class(module, fn, root)
        if receiver is not None:
            targets = self._typed_chain_targets(receiver, parts[1:])
            if targets:
                return [(t, "direct") for t in targets]
        sym = self._resolve_scoped(module, fn, chain)
        if sym is not None:
            if sym.kind == "func":
                return [(sym.key, "direct")]
            if sym.kind == "class":
                return [(t, "ctor") for t in self._ctor_targets(sym.key)]
        if attr is not None and not _is_dunder(attr):
            return [(t, "attr") for t in self._method_index.get(attr, ())]
        return []

    def _build_edges(self) -> None:
        for src in sorted(self.functions):
            fn = self.functions[src]
            module = self.node_module[src]
            seen: set[tuple[str, str]] = set()
            for call in fn.calls:
                for dst, kind in self._call_targets(
                        module, fn, call.chain, call.attr):
                    if (dst, kind) in seen:
                        continue
                    seen.add((dst, kind))
                    self._adj[src].append(Edge(src, dst, kind, call.line))
            self._adj[src].sort(key=lambda e: (e.line, e.dst, e.kind))

    def edges_from(self, node: str) -> list[Edge]:
        return list(self._adj.get(node, ()))

    def targets_of(self, node: str, call) -> list[tuple[str, str]]:
        """(target node, edge kind) pairs of one recorded call site."""
        fn = self.functions[node]
        module = self.node_module[node]
        return self._call_targets(module, fn, call.chain, call.attr)

    def lookup_method(self, class_key: str, name: str) -> str | None:
        """Public alias of the inherited-method lookup."""
        return self._lookup_method(class_key, name)

    # -- reachability -------------------------------------------------------------

    def reachable(self, entries: Iterable[str],
                  kinds: Iterable[str] = EDGE_KINDS,
                  ) -> dict[str, Edge | None]:
        """BFS over edges of the given kinds.

        Returns ``node -> predecessor edge`` (None for entry nodes);
        feed the result to :meth:`call_path` to reconstruct how a node
        was reached.
        """
        allowed = set(kinds)
        pred: dict[str, Edge | None] = {}
        queue: deque[str] = deque()
        for entry in entries:
            if entry in self.functions and entry not in pred:
                pred[entry] = None
                queue.append(entry)
        while queue:
            node = queue.popleft()
            for edge in self._adj.get(node, ()):
                if edge.kind in allowed and edge.dst not in pred:
                    pred[edge.dst] = edge
                    queue.append(edge.dst)
        return pred

    def call_path(self, pred: Mapping[str, Edge | None],
                  node: str) -> list[str]:
        """Entry-to-node call chain from a :meth:`reachable` result."""
        path = [node]
        while True:
            edge = pred.get(path[-1])
            if edge is None:
                break
            path.append(edge.src)
        path.reverse()
        return path
