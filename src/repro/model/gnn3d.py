"""The 3DGNN: cost-aware distance, RBF expansion, heterogeneous message
passing (Eq. 1-5), and the metric head (Eq. 6).

The guidance tensor ``C`` enters the forward pass through the cost-aware
distance of Eq. 1, so marking it ``requires_grad`` yields ``dV/dC`` for
potential relaxation with no extra machinery.

Config flags expose the paper's design choices for ablation benches:
``use_rbf`` (Eq. 2-3 vs raw distances), ``use_cost_distance`` (Eq. 1 vs
plain Euclidean), and ``heterogeneous`` (typed edge MLPs vs shared).

Every call — one candidate or ``B`` — runs the same batch-major pass:
node ``n`` of candidate ``b`` is row ``b * N + n``, edges are the
graph's own receiver-sorted edges offset by candidate, and aggregation
is one ``np.add.reduceat`` sweep per edge type.  Guidance only
reweights the shared edge set, so candidates never need a graph of
their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph
from repro.model.heads import NUM_METRICS, ReadoutHead
from repro.nn import MLP, Module, RBFExpansion, Tensor, concat, segment_sum_csr
from repro.perf.cache import ForwardCacheStore, GraphStatics

#: Candidates per pass of the batch-major forward.  A B-candidate call
#: walks its candidates in chunks of this size, each running the full
#: RBF -> message -> reduceat pass before the next starts, so per-op
#: temporaries stay small whatever ``B`` is.  Tape-free at B = 8-16 on a
#: 2-core container: chunks of 1 were ~20% slower per candidate than 2
#: on OTA1, chunks of 4 within 5% of 2 on OTA1 and OTA3, and chunks of
#: 8 or more 10-25% slower on OTA3 (96 access points).
FORWARD_CHUNK = 2


@dataclass(frozen=True)
class Gnn3dConfig:
    """3DGNN hyperparameters.

    Attributes:
        hidden: node/message embedding width.
        num_layers: message-passing rounds ``L``.
        rbf_centers: radial basis bank size.
        rbf_cutoff: largest distance (grid cells) covered by the bank.
        use_rbf: expand distances with RBF (Eq. 2-3); raw distance if False.
        use_cost_distance: modulate distances with guidance (Eq. 1); plain
            Euclidean if False (ablation: kills dV/dC).
        heterogeneous: per-edge-type message MLPs; shared MLP if False.
        seed: parameter-init seed.
    """

    hidden: int = 32
    num_layers: int = 3
    rbf_centers: int = 16
    rbf_cutoff: float = 40.0
    use_rbf: bool = True
    use_cost_distance: bool = True
    heterogeneous: bool = True
    seed: int = 0


class _MessageBlock(Module):
    """Eq. 5 for one edge type: MLP(MLP(v_src) * MLP(Psi(d)))."""

    def __init__(self, hidden: int, dist_dim: int, rng: np.random.Generator) -> None:
        self.src_mlp = MLP([hidden, hidden], rng)
        self.dist_mlp = MLP([dist_dim, hidden], rng)
        self.out_mlp = MLP([hidden, hidden], rng)

    def forward(self, h: Tensor, src: np.ndarray, dist_feat: Tensor) -> Tensor:
        gathered = h.gather_rows(src)
        return self.out_mlp(self.src_mlp(gathered) * self.dist_mlp(dist_feat))


class _PassingLayer(Module):
    """One round of cost-aware message passing over all edge types."""

    def __init__(self, hidden: int, dist_dim: int, rng: np.random.Generator,
                 heterogeneous: bool) -> None:
        if heterogeneous:
            self.blocks = {
                et: _MessageBlock(hidden, dist_dim, rng) for et in EdgeType
            }
        else:
            shared = _MessageBlock(hidden, dist_dim, rng)
            self.blocks = {et: shared for et in EdgeType}
        # Register for parameter discovery (dicts are not walked).
        self._block_list = list(dict.fromkeys(self.blocks.values()))

    def forward(self, h: Tensor, edges: dict[EdgeType, tuple],
                dist_feats: dict[EdgeType, Tensor]) -> Tensor:
        """One residual update: ``h`` plus every edge type's messages
        summed per receiving node.

        ``edges`` maps each non-empty edge type to its receiver-sorted
        ``(src, dst, seg_nodes, seg_starts)`` in ``h``'s row indexing.
        """
        aggregated = None
        for edge_type, (src, dst, nodes, starts) in edges.items():
            messages = self.blocks[edge_type](h, src, dist_feats[edge_type])
            summed = segment_sum_csr(messages, nodes, starts, dst, len(h))
            aggregated = summed if aggregated is None else aggregated + summed
        if aggregated is None:
            return h
        return h + aggregated


class Gnn3d(Module):
    """The full 3DGNN performance model ``f_theta(G_H, C)``."""

    def __init__(self, ap_dim: int, module_dim: int,
                 config: Gnn3dConfig | None = None) -> None:
        self.config = config or Gnn3dConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.ap_embed = MLP([ap_dim, cfg.hidden], rng)
        self.module_embed = MLP([module_dim, cfg.hidden], rng)
        self.rbf = RBFExpansion(cfg.rbf_centers, cfg.rbf_cutoff)
        dist_dim = cfg.rbf_centers if cfg.use_rbf else 1
        self.layers = [
            _PassingLayer(cfg.hidden, dist_dim, rng, cfg.heterogeneous)
            for _ in range(cfg.num_layers)
        ]
        self.head = ReadoutHead(cfg.hidden, rng, NUM_METRICS)
        self.cache = ForwardCacheStore()

    # -- forward -----------------------------------------------------------------------

    def forward(self, graph: HeteroGraph, guidance: Tensor) -> Tensor:
        """Predict normalized metrics for guidance ``C`` on graph ``G_H``.

        Args:
            graph: the heterogeneous routing graph.
            guidance: (num_aps, 3) tensor of per-AP guidance vectors, in the
                order of ``graph.ap_keys``.  Mark ``requires_grad`` to get
                ``dV/dC`` after ``backward()``.  A (B, num_aps, 3) tensor
                is handed to :meth:`forward_batch`.

        Returns:
            Length-5 tensor of normalized metric predictions (see
            :meth:`repro.simulation.metrics.PerformanceMetrics.to_normalized`),
            or a (B, 5) tensor for batched guidance.
        """
        if guidance.ndim == 3:
            return self.forward_batch(graph, guidance)
        if guidance.shape != (graph.num_aps, 3):
            raise ValueError(
                f"guidance shape {guidance.shape} != ({graph.num_aps}, 3)"
            )
        batched = guidance.reshape(1, graph.num_aps, 3)
        return self._forward(graph, batched).reshape(-1)

    def forward_batch(self, graph: HeteroGraph, guidance: Tensor) -> Tensor:
        """Evaluate ``B`` guidance candidates; returns a (B, 5) tensor.

        Row ``b`` is the same pass :meth:`forward` runs on candidate
        ``b`` alone, so it agrees with it to summation order (<1e-10);
        gradients reach every guidance slice.
        """
        batch = guidance.shape[0] if guidance.ndim else 0
        if batch < 1:
            raise ValueError(f"need at least one guidance candidate, "
                             f"got shape {guidance.shape}")
        if guidance.shape != (batch, graph.num_aps, 3):
            raise ValueError(
                f"guidance shape {guidance.shape} != "
                f"({batch}, {graph.num_aps}, 3)"
            )
        return self._forward(graph, guidance)

    def _forward(self, graph: HeteroGraph, guidance: Tensor) -> Tensor:
        """The batch-major pass over (B, num_aps, 3) guidance, in chunks
        of :data:`FORWARD_CHUNK` candidates."""
        statics = self.cache.statics(graph)
        # Node embeddings before message passing do not see guidance:
        # computed once per call, shared by every chunk.
        h_static = self.ap_embed(Tensor(graph.ap_features))
        if graph.num_modules:
            h_static = concat(
                [h_static, self.module_embed(Tensor(graph.module_features))],
                axis=0)
        batch = guidance.shape[0]
        outs = []
        for start in range(0, batch, FORWARD_CHUNK):
            stop = min(start + FORWARD_CHUNK, batch)
            chunk = guidance if stop - start == batch else guidance[start:stop]
            outs.append(self._forward_chunk(graph, statics, h_static, chunk))
        return outs[0] if len(outs) == 1 else concat(outs, axis=0)

    def _forward_chunk(self, graph: HeteroGraph, statics: GraphStatics,
                       h_static: Tensor, guidance: Tensor) -> Tensor:
        """Message passing and readout for a few stacked candidates."""
        count = guidance.shape[0]
        num_nodes = graph.num_nodes
        offsets = np.arange(count, dtype=np.int64)[:, None]
        edges: dict[EdgeType, tuple] = {}
        for edge_type, (src, dst) in statics.edge_cache.items():
            num_edges = len(src)
            if num_edges == 0:
                continue
            nodes = statics.seg_nodes[edge_type]
            starts = statics.seg_starts[edge_type]
            if count > 1:
                src = (src + offsets * num_nodes).ravel()
                dst = (dst + offsets * num_nodes).ravel()
                nodes = (nodes + offsets * num_nodes).ravel()
                starts = (starts + offsets * num_edges).ravel()
            edges[edge_type] = (src, dst, nodes, starts)

        if graph.num_modules:
            neutral = Tensor(np.ones((count, graph.num_modules, 3)))
            guidance = concat([guidance, neutral], axis=1)
        dist_feats = self._edge_distances(
            guidance.reshape(count * num_nodes, 3), statics, edges, count)

        h = h_static if count == 1 else concat([h_static] * count, axis=0)
        for layer in self.layers:
            h = layer(h, edges, dist_feats)
        return self.head(h, num_graphs=count)

    def _edge_distances(self, guidance_all: Tensor, statics: GraphStatics,
                        edges: dict[EdgeType, tuple],
                        count: int) -> dict[EdgeType, Tensor]:
        """Cost-aware distance features per edge type (Eq. 1-3).

        ``C_k`` of the *receiving* node modulates the (h, w, z) decomposition
        of the edge vector; module receivers use neutral guidance.  The
        decomposition itself (``|pos[dst] - pos[src]|``) is
        guidance-independent and comes precomputed from ``statics``,
        shared by all ``count`` candidates through broadcasting.
        """
        feats: dict[EdgeType, Tensor] = {}
        for edge_type, (_src, dst, _nodes, _starts) in edges.items():
            if self.config.use_cost_distance:
                deltas = statics.deltas[edge_type]
                c_recv = guidance_all.gather_rows(dst).reshape(
                    count, len(deltas), 3)
                weighted = c_recv * Tensor(deltas)
                dist = ((weighted * weighted).sum(axis=2) + 1e-6).sqrt()
                dist = dist.reshape(-1)
            else:
                dist = Tensor(np.tile(statics.euclidean(edge_type), count))
            if self.config.use_rbf:
                feats[edge_type] = self.rbf(dist)
            else:
                feats[edge_type] = dist.reshape(-1, 1)
        return feats
