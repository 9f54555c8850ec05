"""The one 3DGNN forward: batch-major chunks over receiver-sorted edges.

The contracts under test (see docs/PERFORMANCE.md, "One forward"):

* a ``B``-candidate forward matches the per-candidate forward to <1e-10
  for every ``B`` — including odd ``B``, whose last chunk is short — on
  the built-in OTAs and on random graphs (no modules, empty edge types);
* the per-candidate forward matches an independent oracle that
  aggregates over the graph's *unsorted* edges with a scatter-add;
* gradients reach every guidance slice across chunk boundaries;
* an empty batch and misshaped guidance raise ``ValueError``;
* the receiver-sorted statics are built once per graph, shared by every
  batch size, and rebuilt when the graph's content fingerprint changes;
* the registry serves float64 only: a manifest edited to declare
  ``float32`` fails to load with a typed ``ServeError``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.perf.cache as cache_mod
from repro import build_benchmark, place_benchmark
from repro.graph import build_hetero_graph
from repro.graph.hetero import EdgeType, HeteroGraph
from repro.model.gnn3d import FORWARD_CHUNK, Gnn3d, Gnn3dConfig
from repro.nn import Tensor, concat, no_grad
from repro.perf.cache import ForwardCacheStore
from repro.reliability.errors import ServeError
from repro.router import RoutingGrid
from repro.serve import ModelRegistry

#: Tiny model for hypothesis examples (dims fixed by synthetic_graph).
TINY = Gnn3dConfig(hidden=4, num_layers=1, rbf_centers=4, seed=3)

#: Small-but-real model for the OTA checks.
SMALL = Gnn3dConfig(hidden=8, num_layers=2, rbf_centers=4, seed=3)

#: Batch sizes of the parity checks; the odd ones end in a short chunk.
BATCHES = (1, 2, 3, 5, 8, 17)

AP_DIM, MODULE_DIM = 4, 3


def synthetic_graph(num_aps: int, num_modules: int,
                    seed: int) -> HeteroGraph:
    """A random but valid HeteroGraph (feature dims AP_DIM/MODULE_DIM).

    Edge counts are drawn from ``seed`` too, including zero — empty
    edge types exercise the forward's degenerate paths.
    """
    rng = np.random.default_rng(seed)

    def pairs(count, lo_a, hi_a, lo_b, hi_b):
        if count == 0 or hi_a <= lo_a or hi_b <= lo_b:
            return np.zeros((0, 2), dtype=np.int64)
        return np.stack([rng.integers(lo_a, hi_a, size=count),
                         rng.integers(lo_b, hi_b, size=count)], axis=1)

    num_nodes = num_aps + num_modules
    return HeteroGraph(
        ap_keys=[(f"d{i}", f"p{i}") for i in range(num_aps)],
        ap_nets=[f"n{i % 3}" for i in range(num_aps)],
        module_names=[f"m{i}" for i in range(num_modules)],
        ap_positions=rng.uniform(0.0, 30.0, size=(num_aps, 3)),
        module_positions=rng.uniform(0.0, 30.0, size=(num_modules, 3)),
        ap_features=rng.normal(size=(num_aps, AP_DIM)),
        module_features=rng.normal(size=(num_modules, MODULE_DIM)),
        edges={
            EdgeType.PP: pairs(int(rng.integers(0, 3 * num_aps)),
                               0, num_aps, 0, num_aps),
            EdgeType.MM: pairs(int(rng.integers(0, 2 * num_modules + 1)),
                               num_aps, num_nodes, num_aps, num_nodes),
            EdgeType.MP: pairs(int(rng.integers(0, num_nodes)),
                               num_aps, num_nodes, 0, num_aps),
        },
    )


def reference_forward(model: Gnn3d, graph: HeteroGraph,
                      guidance: np.ndarray) -> np.ndarray:
    """One candidate through the model's own layers, aggregated over the
    graph's unsorted directed edges with ``np.add.at`` — independent of
    :class:`repro.perf.cache.GraphStatics` and its reduceat offsets."""
    cfg = model.config
    with no_grad():
        c_all = np.concatenate([guidance, np.ones((graph.num_modules, 3))])
        h = model.ap_embed(Tensor(graph.ap_features))
        if graph.num_modules:
            h = concat([h, model.module_embed(
                Tensor(graph.module_features))], axis=0)
        edges, feats = {}, {}
        for edge_type in EdgeType:
            src, dst = graph.directed_edges(edge_type)
            if len(src) == 0:
                continue
            delta = np.abs(graph.positions[dst] - graph.positions[src])
            if cfg.use_cost_distance:
                delta = c_all[dst] * delta
            dist = np.sqrt((delta * delta).sum(axis=1) + 1e-6)
            feats[edge_type] = (model.rbf(Tensor(dist)) if cfg.use_rbf
                                else Tensor(dist.reshape(-1, 1)))
            edges[edge_type] = (src, dst)
        for layer in model.layers:
            aggregated = np.zeros_like(h.data)
            for edge_type, (src, dst) in edges.items():
                messages = layer.blocks[edge_type](h, src, feats[edge_type])
                np.add.at(aggregated, dst, messages.data)
            h = Tensor(h.data + aggregated)
        return model.head(h).data.reshape(-1)


def ota_graph(name: str, tech) -> HeteroGraph:
    placement = place_benchmark(build_benchmark(name), variant="A", seed=0,
                                iterations=60)
    return build_hetero_graph(RoutingGrid(placement, tech))


def assert_rows_match_singles(model: Gnn3d, graph: HeteroGraph,
                              pool: np.ndarray) -> None:
    """Every B in BATCHES: batched rows == per-candidate forwards."""
    singles = np.stack([model(graph, Tensor(row)).numpy() for row in pool])
    for batch in BATCHES:
        rows = model.forward_batch(graph, Tensor(pool[:batch])).numpy()
        assert rows.shape == (batch, 5)
        assert np.abs(rows - singles[:batch]).max() < 1e-10, batch
    oracle = reference_forward(model, graph, pool[0])
    assert np.abs(singles[0] - oracle).max() < 1e-10


class TestBlockedForwardParity:
    @given(num_aps=st.integers(2, 10), num_modules=st.integers(0, 4),
           use_cost_distance=st.booleans(), use_rbf=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @settings(deadline=None, max_examples=25)
    def test_batched_matches_per_candidate(self, num_aps, num_modules,
                                           use_cost_distance, use_rbf,
                                           seed):
        graph = synthetic_graph(num_aps, num_modules, seed)
        config = Gnn3dConfig(hidden=4, num_layers=2, rbf_centers=4, seed=3,
                             use_cost_distance=use_cost_distance,
                             use_rbf=use_rbf)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=config)
        rng = np.random.default_rng(seed + 1)
        pool = rng.uniform(0.5, 2.0, size=(max(BATCHES), num_aps, 3))
        assert_rows_match_singles(model, graph, pool)

    @pytest.mark.parametrize("name", ["OTA1", "OTA2", "OTA3"])
    def test_batched_matches_per_candidate_on_otas(self, name, tech):
        graph = ota_graph(name, tech)
        model = Gnn3d(graph.ap_features.shape[1],
                      graph.module_features.shape[1], config=SMALL)
        rng = np.random.default_rng(7)
        pool = rng.uniform(0.5, 2.0, size=(max(BATCHES), graph.num_aps, 3))
        assert_rows_match_singles(model, graph, pool)

    def test_default_dispatch_is_blocked(self, ota1_graph):
        """3-D guidance through ``forward`` hands off to forward_batch."""
        model = Gnn3d(ota1_graph.ap_features.shape[1],
                      ota1_graph.module_features.shape[1], config=SMALL)
        rng = np.random.default_rng(0)
        cand = rng.uniform(0.5, 2.0, size=(6, ota1_graph.num_aps, 3))
        via_forward = model(ota1_graph, Tensor(cand)).numpy()
        via_batch = model.forward_batch(ota1_graph, Tensor(cand)).numpy()
        assert np.array_equal(via_forward, via_batch)

    def test_gradients_flow_through_block_slices(self, ota1_graph):
        """Backward through several chunks (the last one short) scatters
        into the right guidance rows."""
        model = Gnn3d(ota1_graph.ap_features.shape[1],
                      ota1_graph.module_features.shape[1], config=SMALL)
        batch = 2 * FORWARD_CHUNK + 1
        rng = np.random.default_rng(2)
        cand = rng.uniform(0.5, 2.0, size=(batch, ota1_graph.num_aps, 3))
        batched = Tensor(cand, requires_grad=True)
        model.forward_batch(ota1_graph, batched).sum().backward()
        for row in range(batch):
            single = Tensor(cand[row], requires_grad=True)
            model(ota1_graph, single).sum().backward()
            assert np.abs(single.grad).max() > 0
            assert np.abs(single.grad - batched.grad[row]).max() < 1e-10

    def test_no_stale_plans_after_position_mutation(self):
        """Warm statics must not survive an in-place geometry change."""
        graph = synthetic_graph(6, 2, seed=11)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        rng = np.random.default_rng(3)
        cand = rng.uniform(0.5, 2.0, size=(5, 6, 3))
        model.forward_batch(graph, Tensor(cand))  # warm the statics
        graph.ap_positions[0, 0] += 2.5
        after = model.forward_batch(graph, Tensor(cand)).numpy()
        # Same seeded weights, cold cache: the ground truth.
        fresh = Gnn3d(AP_DIM, MODULE_DIM, config=TINY).forward_batch(
            graph, Tensor(cand)).numpy()
        assert np.array_equal(after, fresh)

    def test_invalid_batch_rejected(self):
        graph = synthetic_graph(3, 0, seed=4)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        with pytest.raises(ValueError, match="at least one"):
            model.forward_batch(graph, Tensor(np.ones((0, 3, 3))))
        with pytest.raises(ValueError, match="at least one"):
            model(graph, Tensor(np.ones((0, 3, 3))))

    def test_misshaped_guidance_rejected(self):
        graph = synthetic_graph(4, 1, seed=12)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        with pytest.raises(ValueError, match="guidance shape"):
            model.forward_batch(graph, Tensor(np.ones((2, 3, 3))))
        with pytest.raises(ValueError, match="guidance shape"):
            model(graph, Tensor(np.ones((4, 2))))


class TestStaticsCache:
    def test_edges_sorted_by_receiver(self):
        graph = synthetic_graph(7, 3, seed=5)
        statics = ForwardCacheStore().statics(graph)
        for edge_type in EdgeType:
            src, dst = statics.edge_cache[edge_type]
            orig_src, orig_dst = graph.directed_edges(edge_type)
            assert np.all(np.diff(dst) >= 0)
            assert (sorted(zip(src.tolist(), dst.tolist()))
                    == sorted(zip(orig_src.tolist(), orig_dst.tolist())))
            nodes = statics.seg_nodes[edge_type]
            starts = statics.seg_starts[edge_type]
            assert np.array_equal(nodes, np.unique(dst))
            assert np.array_equal(dst[starts], nodes)
            np.testing.assert_array_equal(
                statics.deltas[edge_type],
                np.abs(graph.positions[dst] - graph.positions[src]))

    def test_statics_reused_until_fingerprint_changes(self):
        graph = synthetic_graph(6, 2, seed=5)
        store = ForwardCacheStore()
        statics = store.statics(graph)
        assert store.statics(graph) is statics
        graph.ap_positions[1, 1] += 4.0
        fresh = store.statics(graph)
        assert fresh is not statics
        et = next(t for t, p in graph.edges.items() if len(p))
        assert not np.array_equal(fresh.deltas[et], statics.deltas[et])

    def test_statics_shared_across_batch_sizes(self, monkeypatch):
        builds: list[int] = []
        real_build = cache_mod.build_statics
        monkeypatch.setattr(
            cache_mod, "build_statics",
            lambda graph: builds.append(id(graph)) or real_build(graph))
        graph = synthetic_graph(6, 2, seed=6)
        model = Gnn3d(AP_DIM, MODULE_DIM, config=TINY)
        rng = np.random.default_rng(0)
        for batch in (1, 3, 8, 2, 17):
            model(graph, Tensor(rng.uniform(0.5, 2.0, size=(batch, 6, 3))))
        model(graph, Tensor(rng.uniform(0.5, 2.0, size=(6, 3))))
        assert builds == [id(graph)]

    def test_no_aliasing_across_fingerprints(self):
        """Two same-shape graphs must get distinct statics."""
        g1 = synthetic_graph(6, 2, seed=21)
        g2 = synthetic_graph(6, 2, seed=22)
        store = ForwardCacheStore()
        s1 = store.statics(g1)
        s2 = store.statics(g2)
        assert s1 is not s2
        assert store.statics(g1) is s1
        assert store.statics(g2) is s2
        et = next(t for t in EdgeType
                  if len(g1.edges[t]) and len(g2.edges[t]))
        assert not np.array_equal(s1.deltas[et], s2.deltas[et])


class TestServedPrecision:
    def test_float32_manifest_fails_load(self, ota1_graph, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        model = Gnn3d(ota1_graph.ap_features.shape[1],
                      ota1_graph.module_features.shape[1], config=SMALL)
        manifest = registry.save("ota1", model, ota1_graph)
        path = tmp_path / "registry" / "ota1" / manifest.version / \
            "manifest.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["precision"] = "float32"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ServeError, match="float32") as info:
            registry.load("ota1", graph=ota1_graph)
        assert info.value.details["precision"] == "float32"
