"""Every metric the benchmark emits: name, unit and direction.

``BENCHMARK.json`` at the repository root declares the same lists; the
self-test (``perfbench/selftest.py``) fails when the two disagree.
"""

from __future__ import annotations

#: Serving endpoints: (endpoint id, benchmark circuit).
SERVE_DESIGNS = (("ota1", "OTA1"), ("ota3", "OTA3"))

#: (name, unit, better) of each end-to-end metric, measured untraced.
#: The FoM and the potential are signed sums of log10-scaled metrics, so
#: their bounds, which are shares of a median, apply to 10**value: a
#: positive linear figure of merit that is never 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("fold_wall_s", "s", "lower"),
    ("fold_fom", "10powFoM", "lower"),
    ("fold_derived_fom", "10powFoM", "lower"),
    ("fold_best_potential", "10powPotential", "lower"),
    ("score_per_s", "candidates/s", "higher"),
    ("score_ota1_p50_ms", "ms", "lower"),
    ("score_ota1_p90_ms", "ms", "lower"),
    ("score_ota3_p50_ms", "ms", "lower"),
    ("score_ota3_p90_ms", "ms", "lower"),
)

#: Layers self time rolls up into, keyed by span name.  The span names
#: are those :mod:`perfbench.tracing` opens around each wrapped call.
SPAN_LAYERS = {
    "placement.place": "placement",
    "graph.build": "graph",
    "fold.run": "core.pipeline",
    "dataset.generate": "core.dataset",
    "router.route_all": "router",
    "router.connection": "router",
    "router.costfield": "router",
    "extraction.extract": "extraction",
    "simulation.simulate": "simulation",
    "model.fit": "model",
    "gnn.forward": "model.gnn3d",
    "gnn.forward_batch": "model.gnn3d",
    "nn.backward": "nn",
    "relax.run": "core.relaxation",
    "relax.value_and_grad": "core.potential",
    "serve.registry": "serve",
    "serve.register": "serve",
    "serve.submit": "serve",
    "serve.flush": "serve",
}

#: Layers in report order; time no span covers is "unattributed".
LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values())) + ("unattributed",)

_S, _N = "s", "count"

#: (name, unit, better) of each per-layer metric, from the traced run.
#: For a count of work done, "lower" means less work for the same result.
PER_LAYER = (
    ("placement.place_s", _S, "lower"),
    ("graph.build_s", _S, "lower"),
    ("dataset.generate_s", _S, "lower"),
    ("dataset.self_s", _S, "lower"),
    ("dataset.samples_valid", _N, "higher"),
    ("dataset.samples_retried", _N, "lower"),
    ("dataset.samples_skipped", _N, "lower"),
    ("dataset.valid_ratio", "ratio", "higher"),
    ("router.route_all_s", _S, "lower"),
    ("router.route_all_calls", _N, "lower"),
    ("router.route_all_self_s", _S, "lower"),
    ("router.iterations", _N, "lower"),
    ("router.failed_nets", _N, "lower"),
    ("router.connection_s", _S, "lower"),
    ("router.connection_calls", _N, "lower"),
    ("router.connection_failed", _N, "lower"),
    ("router.costfield_s", _S, "lower"),
    ("router.costfield_calls", _N, "lower"),
    ("router.connections.scalar", _N, "lower"),
    ("router.connections.bucketed", _N, "lower"),
    ("router.expansions", _N, "lower"),
    ("router.expansions_per_s", "1/s", "higher"),
    ("extraction.extract_s", _S, "lower"),
    ("extraction.extract_calls", _N, "lower"),
    ("simulation.simulate_s", _S, "lower"),
    ("simulation.simulate_calls", _N, "lower"),
    ("model.fit_s", _S, "lower"),
    ("model.fit_calls", _N, "lower"),
    ("gnn.forward_s", _S, "lower"),
    ("gnn.forward_calls", _N, "lower"),
    ("gnn.forward_s.train", _S, "lower"),
    ("gnn.forward_calls.train", _N, "lower"),
    ("gnn.forward_s.relax", _S, "lower"),
    ("gnn.forward_calls.relax", _N, "lower"),
    ("nn.backward_s", _S, "lower"),
    ("nn.backward_calls", _N, "lower"),
    ("nn.backward_s.train", _S, "lower"),
    ("nn.backward_calls.train", _N, "lower"),
    ("nn.backward_s.relax", _S, "lower"),
    ("nn.backward_calls.relax", _N, "lower"),
    ("gnn.forward_batch_s", _S, "lower"),
    ("gnn.forward_batch_calls", _N, "lower"),
    ("gnn.forward_batch_candidates", _N, "lower"),
    ("gnn.forward_batch_calls.train", _N, "lower"),
    ("gnn.forward_batch_calls.relax", _N, "lower"),
    ("relax.run_s", _S, "lower"),
    ("relax.self_s", _S, "lower"),
    ("relax.value_and_grad_s", _S, "lower"),
    ("relax.value_and_grad_calls", _N, "lower"),
    ("relax.gnn_forwards", _N, "lower"),
    ("relax.lbfgs_evals", _N, "lower"),
    ("relax.restarts", _N, "higher"),
    ("relax.diverged", _N, "lower"),
    ("serve.registry_s", _S, "lower"),
    ("serve.submit_s", _S, "lower"),
    ("serve.flush_s", _S, "lower"),
    ("serve.flush_self_s", _S, "lower"),
    ("serve.forward_s.ota1", _S, "lower"),
    ("serve.forward_s.ota3", _S, "lower"),
    ("serve.candidates_per_call", "candidates", "higher"),
    ("serve.batches", _N, "lower"),
    ("serve.degraded_batches", _N, "lower"),
    ("serve.ok", _N, "higher"),
    ("serve.failed", _N, "lower"),
    ("serve.rejected", _N, "lower"),
    *((f"layer.{layer}.self_s", _S, "lower") for layer in LAYERS),
    ("trace.wall_s", _S, "lower"),
    ("trace.fold_overhead", "ratio", "lower"),
    ("trace.serve_overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
