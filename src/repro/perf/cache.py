"""Graph-invariant forward-pass caches for the 3DGNN.

Potential relaxation pays one GNN forward-backward per L-BFGS function
evaluation; everything in that pass that does not depend on the guidance
``C`` is hoisted here and built once per graph:

* the directed edge expansion (also memoized on
  :meth:`repro.graph.hetero.HeteroGraph.directed_edges` itself);
* the static geometry of the Eq. 1 cost-aware distance — the per-edge
  ``|pos[dst] - pos[src]|`` decomposition that guidance merely reweights;
* the plain Euclidean distances used when ``use_cost_distance`` is off
  (fully static, so the whole Eq. 2-3 input is cacheable);
* the receiver-sorted edge order and its ``np.add.reduceat`` segment
  offsets, which every forward — one candidate or ``B`` — aggregates
  over.

Caches are keyed on the *live* graph object (weak reference, so entries
die with their graph and a recycled ``id()`` can never alias) and
validated against a content fingerprint — node/edge counts **plus** a
digest of the position and edge arrays — so both replacing a graph's
edge arrays and mutating its geometry in place invalidate its entry.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.graph.hetero import EdgeType, HeteroGraph

#: Most live graphs a :class:`ForwardCacheStore` keeps statics for.
MAX_CACHED_GRAPHS = 4


def graph_fingerprint(graph: HeteroGraph) -> tuple[int, int, int, str]:
    """Content fingerprint of everything :func:`build_statics` reads.

    Counts alone are not enough: mutating ``ap_positions`` in place (or
    swapping an edge array for one of equal length) changes the Eq. 1
    deltas without changing any count, and a count-only fingerprint
    would keep serving stale statics.  The digest covers positions and
    edge arrays byte-for-byte; features are deliberately excluded (the
    statics never read them — they are tiled verbatim, never derived).

    Also the identity the serving layer pins a checkpoint to: a
    :class:`repro.serve.registry.ModelRegistry` manifest records it at
    save time and refuses to score a graph whose fingerprint drifted.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(graph.ap_positions).tobytes())
    digest.update(np.ascontiguousarray(graph.module_positions).tobytes())
    for edge_type in EdgeType:
        pairs = graph.edges.get(edge_type)
        digest.update(edge_type.value.encode())
        if pairs is not None and len(pairs):
            digest.update(np.ascontiguousarray(pairs).tobytes())
    return (graph.num_aps, graph.num_modules, graph.num_edges(),
            digest.hexdigest())


@dataclass
class GraphStatics:
    """Per-graph static geometry shared by every forward pass.

    Each edge type's directed edges are stably sorted by receiving node
    once per graph, so message rows come out grouped by receiver and
    aggregation is one contiguous ``np.add.reduceat`` sweep.  A
    ``B``-candidate forward offsets these index arrays by candidate on
    the fly (batch-major rows, see :mod:`repro.model.gnn3d`).

    Attributes:
        edge_cache: receiver-sorted directed (src, dst) index arrays per
            edge type.
        deltas: per edge type, the (E, 3) absolute (h, w, z) edge-vector
            decomposition of Eq. 1 in the same order — guidance-independent.
        seg_nodes: per edge type, the distinct receiving nodes in
            ascending order (the reduction's output rows).
        seg_starts: per edge type, the offsets of each receiver's first
            edge (the ``np.add.reduceat`` boundaries).
    """

    edge_cache: dict[EdgeType, tuple[np.ndarray, np.ndarray]]
    deltas: dict[EdgeType, np.ndarray]
    seg_nodes: dict[EdgeType, np.ndarray]
    seg_starts: dict[EdgeType, np.ndarray]
    _euclidean: dict[EdgeType, np.ndarray] = field(default_factory=dict)

    def euclidean(self, edge_type: EdgeType) -> np.ndarray:
        """Static Euclidean edge lengths (the Eq. 1 ablation path)."""
        dist = self._euclidean.get(edge_type)
        if dist is None:
            d = self.deltas[edge_type]
            dist = np.sqrt((d * d).sum(axis=1) + 1e-6)
            self._euclidean[edge_type] = dist
        return dist


def build_statics(graph: HeteroGraph) -> GraphStatics:
    """Hoist the guidance-independent per-edge geometry of one graph.

    The stable receiver sort keeps same-receiver edges in their
    original relative order; it still changes the summation order
    against an unsorted scatter, which is why batched and unbatched
    forwards are compared at 1e-10, not bitwise, against such oracles.
    """
    positions = graph.positions
    edge_cache: dict[EdgeType, tuple[np.ndarray, np.ndarray]] = {}
    deltas: dict[EdgeType, np.ndarray] = {}
    seg_nodes: dict[EdgeType, np.ndarray] = {}
    seg_starts: dict[EdgeType, np.ndarray] = {}
    for edge_type in EdgeType:
        src, dst = graph.directed_edges(edge_type)
        order = np.argsort(dst, kind="stable")
        src = np.ascontiguousarray(src[order], dtype=np.int64)
        dst = np.ascontiguousarray(dst[order], dtype=np.int64)
        nodes, starts = np.unique(dst, return_index=True)
        edge_cache[edge_type] = (src, dst)
        deltas[edge_type] = np.abs(positions[dst] - positions[src])
        seg_nodes[edge_type] = nodes.astype(np.int64)
        seg_starts[edge_type] = starts.astype(np.int64)
    return GraphStatics(edge_cache=edge_cache, deltas=deltas,
                        seg_nodes=seg_nodes, seg_starts=seg_starts)


class _Entry:
    __slots__ = ("ref", "fingerprint", "statics")

    def __init__(self, graph: HeteroGraph) -> None:
        self.ref = weakref.ref(graph)
        self.fingerprint = graph_fingerprint(graph)
        self.statics: GraphStatics | None = None


class ForwardCacheStore:
    """Per-model cache of :class:`GraphStatics`, one entry per live graph.

    A model is typically used with one graph (plus occasionally a
    validation graph), so the store keeps at most
    :data:`MAX_CACHED_GRAPHS` live entries, evicted in LRU order: a hit
    refreshes the entry's recency, and capacity evicts only the stalest
    entries — never the entry being fetched, and never the whole store
    at once (wholesale clearing made alternation across one graph more
    than capacity rebuild everything).
    """

    def __init__(self) -> None:
        self._entries: dict[int, _Entry] = {}

    def _entry(self, graph: HeteroGraph) -> _Entry:
        key = id(graph)
        entry = self._entries.get(key)
        if (entry is not None and entry.ref() is graph
                and entry.fingerprint == graph_fingerprint(graph)):
            # Refresh LRU recency (dicts preserve insertion order).
            self._entries.pop(key)
            self._entries[key] = entry
            return entry
        if entry is not None:  # dead ref or stale fingerprint: replace
            del self._entries[key]
        for dead in [k for k, e in self._entries.items()
                     if e.ref() is None]:
            del self._entries[dead]
        while len(self._entries) >= MAX_CACHED_GRAPHS:
            del self._entries[next(iter(self._entries))]
        entry = _Entry(graph)
        self._entries[key] = entry
        return entry

    def statics(self, graph: HeteroGraph) -> GraphStatics:
        entry = self._entry(graph)
        if entry.statics is None:
            entry.statics = build_statics(graph)
        return entry.statics
