"""Spans around calls into each layer, recorded from outside ``src/``.

:class:`Tracer` replaces public functions and methods with wrappers
that record a span (name, start, end, parent) and a few counters per
call.  Each wrapper is installed where its caller looks the name up:
``repro.core.dataset`` imports ``extract`` and ``simulate_performance``
by name, so those are patched in that module, not where they are
defined.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from perfbench.spec import LAYERS, SPAN_LAYERS

_MARK = "__perfbench_wrapped__"

#: Nearest enclosing span that decides which phase a model call serves.
_PHASES = {"model.fit": "train", "relax.run": "relax"}
_MODEL_SPANS = ("gnn.forward", "gnn.forward_batch", "nn.backward")


def _guidance(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["guidance"]


def call_sites():
    """(owner, attribute, span name) of every wrapped call site."""
    from repro.core import dataset, pipeline, potential, relaxation
    from repro.graph import builder
    from repro.model import gnn3d, training
    from repro.nn import tensor
    from repro.placement import placer
    from repro.router import astar, iterative
    from repro.serve import registry, service

    return (
        (placer, "place_benchmark", "placement.place"),
        (builder, "build_hetero_graph", "graph.build"),
        (dataset, "build_hetero_graph", "graph.build"),
        (pipeline.AnalogFold, "run", "fold.run"),
        (pipeline, "generate_dataset", "dataset.generate"),
        (iterative.IterativeRouter, "route_all", "router.route_all"),
        (astar.AStarRouter, "route_connection", "router.connection"),
        (astar, "CostField", "router.costfield"),
        (dataset, "extract", "extraction.extract"),
        (dataset, "simulate_performance", "simulation.simulate"),
        (training.Trainer, "fit", "model.fit"),
        (gnn3d.Gnn3d, "forward", "gnn.forward"),
        (gnn3d.Gnn3d, "forward_batch", "gnn.forward_batch"),
        (tensor.Tensor, "backward", "nn.backward"),
        (relaxation.PotentialRelaxer, "run", "relax.run"),
        (potential.PotentialFunction, "value_and_grad",
         "relax.value_and_grad"),
        (potential.PotentialFunction, "value_and_grad_batch",
         "relax.value_and_grad"),
        (registry.ModelRegistry, "save", "serve.registry"),
        (registry.ModelRegistry, "load", "serve.registry"),
        (service.ScoringService, "register_checkpoint", "serve.register"),
        (service.ScoringService, "submit", "serve.submit"),
        (service.ScoringService, "flush", "serve.flush"),
    )


def assert_unwrapped() -> None:
    """Raise when any call site still holds a tracing wrapper."""
    left = [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in call_sites()
            if hasattr(getattr(owner, attr), _MARK)]
    if left:
        raise RuntimeError(f"tracing wrappers installed: {left}")


class Tracer:
    """In-memory span recorder that wraps the layer entry points."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, id(graph) of a model
        #: call or None, candidates in a model call or 0]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, graph_id=None, candidates: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           graph_id, candidates])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        before, after = self._hooks(name)
        model_call = name.startswith("gnn.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            graph_id, candidates = None, 0
            if model_call:
                guidance = _guidance(args, kwargs)
                if name == "gnn.forward" and guidance.ndim == 3:
                    # forward() hands batched guidance to forward_batch,
                    # which records its own span.
                    return fn(*args, **kwargs)
                graph_id = id(args[1])
                candidates = guidance.shape[0] if guidance.ndim == 3 else 1
            token = before(args) if before else None
            index = self._open(name, graph_id, candidates)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after:
                after(token, result, args)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- counters read where the work happens ------------------------------

    def _hooks(self, name: str):
        counts = self.counts

        def dataset_after(_token, database, _args):
            report = database.report
            counts["dataset.samples_valid"] += report.valid
            counts["dataset.samples_retried"] += report.retried
            counts["dataset.samples_skipped"] += len(report.skipped)

        def route_all_after(_token, result, _args):
            counts["router.iterations"] += result.iterations
            counts["router.failed_nets"] += len(result.failed_nets)

        def connection_before(args):
            router = args[0]
            return dict(router.expansions_by_mode), router.expansions_total

        def connection_after(token, path, args):
            by_mode, total = token
            router = args[0]
            counts["router.expansions"] += router.expansions_total - total
            for mode, count in router.expansions_by_mode.items():
                if count > by_mode.get(mode, 0):
                    counts[f"router.connections.{mode}"] += 1
                    break
            if path is None:
                counts["router.connection_failed"] += 1

        def relax_after(_token, _result, args):
            trace = args[0].trace
            counts["relax.gnn_forwards"] += trace.gnn_forwards
            counts["relax.lbfgs_evals"] += sum(trace.restart_evals)
            counts["relax.restarts"] += trace.restarts
            counts["relax.diverged"] += trace.diverged

        return {
            "dataset.generate": (None, dataset_after),
            "router.route_all": (None, route_all_after),
            "router.connection": (connection_before, connection_after),
            "relax.run": (None, relax_after),
        }.get(name, (None, None))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in call_sites():
            # The owner's own attribute, so that restoring puts back
            # exactly what was there.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Restore every patched call site, then check none is left."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        assert_unwrapped()

    # -- analysis ----------------------------------------------------------

    def _self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [span[2] - span[1] - child[i]
                for i, span in enumerate(self.spans)]

    def _phase(self, index: int) -> str | None:
        parent = self.spans[index][3]
        while parent >= 0:
            phase = _PHASES.get(self.spans[parent][0])
            if phase:
                return phase
            parent = self.spans[parent][3]
        return None

    def layer_self_times(self, wall: float) -> dict[str, float]:
        """Self seconds per layer; "unattributed" is wall minus the roots.

        The values sum to ``wall`` (up to float rounding), because each
        instant inside a root span belongs to exactly one span's self
        time.
        """
        totals = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for span, self_s in zip(self.spans, self._self_times()):
            totals[SPAN_LAYERS[span[0]]] += self_s
            if span[3] < 0:
                roots += span[2] - span[1]
        totals["unattributed"] = wall - roots
        return totals

    def metrics(self, wall: float,
                endpoints: dict[int, str]) -> dict[str, float]:
        """Totals over every span recorded so far, keyed like PER_LAYER.

        ``endpoints`` maps ``id(graph)`` to the serving endpoint id that
        names ``serve.forward_s.<id>``.  The result also holds keys
        PER_LAYER does not list (``fold.run_s``, ...).
        """
        out: dict[str, float] = defaultdict(float, self.counts)
        self_times = self._self_times()
        serve_calls = serve_candidates = 0
        for index, span in enumerate(self.spans):
            name, start, end, parent, graph_id, candidates = span
            duration = end - start
            out[f"{name}_s"] += duration
            out[f"{name}_calls"] += 1
            out[f"{name}_self_s"] += self_times[index]
            if name in _MODEL_SPANS:
                phase = self._phase(index)
                if phase:
                    out[f"{name}_s.{phase}"] += duration
                    out[f"{name}_calls.{phase}"] += 1
            if name == "gnn.forward_batch":
                out["gnn.forward_batch_candidates"] += candidates
            if (candidates and parent >= 0
                    and self.spans[parent][0] == "serve.flush"):
                out[f"serve.forward_s.{endpoints[graph_id]}"] += duration
                serve_calls += 1
                serve_candidates += candidates
        out["dataset.self_s"] = out["dataset.generate_self_s"]
        out["relax.self_s"] = out["relax.run_self_s"]
        attempted = (out["dataset.samples_valid"]
                     + out["dataset.samples_retried"]
                     + out["dataset.samples_skipped"])
        out["dataset.valid_ratio"] = (
            out["dataset.samples_valid"] / attempted if attempted else 0.0)
        search_s = out["router.connection_self_s"]
        out["router.expansions_per_s"] = (
            out["router.expansions"] / search_s if search_s else 0.0)
        out["serve.candidates_per_call"] = (
            serve_candidates / serve_calls if serve_calls else 0.0)
        for layer, seconds in self.layer_self_times(wall).items():
            out[f"layer.{layer}.self_s"] = seconds
        out["trace.wall_s"] = wall
        return dict(out)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds)."""
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent, *_) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "layer": SPAN_LAYERS[name],
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


def layer_report(workload: str, layer_seconds: dict[str, float],
                 wall: float) -> str:
    """Self time and share of the traced wall time, per layer."""
    lines = [f"per-layer self time, {workload}, traced wall {wall:.3f} s",
             f"{'layer':<18}{'self_s':>12}{'share':>9}"]
    for layer, seconds in layer_seconds.items():
        lines.append(f"{layer:<18}{seconds:>12.4f}"
                     f"{seconds / wall if wall else 0.0:>9.1%}")
    total = sum(layer_seconds.values())
    lines.append(f"{'sum':<18}{total:>12.4f}"
                 f"{total / wall if wall else 0.0:>9.1%}")
    return "\n".join(lines)
