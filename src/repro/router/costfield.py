"""Precomputed cost fields for the A* inner loop.

The router's per-node arithmetic — occupancy/blockage tests, history and
present-penalty lookups, per-direction guidance-scaled step costs, and the
multi-target heuristic — is folded into flat arrays once per
``route_connection`` so the expansion loop is pure lookups:

* ``add``: additive cost of *entering* a cell (``history_weight * history``
  plus the soft-mode present penalty), with ``inf`` marking impassable
  cells.  One comparison against ``inf`` replaces the bounds / blocked /
  ownership branch cascade.
* ``h``: the admissible heuristic for every cell, a vectorized ``min`` over
  the target coordinate arrays (the seed router re-derived this from a
  Python generator on every heap push).
* ``step_x`` / ``step_y``: per-layer planar step costs (wire cost, wrong-way
  penalty, guidance ``C[d]`` and per-layer multipliers premultiplied).

All fields use a **padded** layout: the grid is embedded in an
``(nx + 2, ny + 2, nl + 2)`` box whose border cells carry ``add = inf``.
Neighbor indices of in-grid cells are then always valid, so the expansion
loop needs no bounds checks at all.

:class:`AddField` also labels the 6-connected components of passable
cells, so a hard-mode connection with no passable path is proven
unreachable without a search (:meth:`AddField.reaches`).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.reliability.errors import RoutingError
from repro.router.grid import BLOCKED, FREE, GridNode, RoutingGrid

INF = float("inf")

#: Face adjacency: the search's six moves (+-x, +-y, +-z).
_SIX_CONNECTED = ndimage.generate_binary_structure(3, 1)


def validate_connection_inputs(
    guidance_vec: "np.ndarray | None",
    layer_multipliers: "np.ndarray | None",
    num_layers: int,
) -> tuple[tuple[float, float, float], "np.ndarray | None"]:
    """Validate guidance / layer-multiplier inputs for one connection.

    A NaN or infinite guidance entry, or a negative / non-finite layer
    multiplier, would silently poison every g-score it touches; both raise
    :class:`~repro.reliability.errors.RoutingError` naming the offending
    value.  Shape errors keep raising ``ValueError`` (API contract).
    """
    if guidance_vec is None:
        guid = (1.0, 1.0, 1.0)
    else:
        arr = np.asarray(guidance_vec, dtype=float)
        if arr.shape != (3,):
            raise ValueError(
                f"guidance_vec must have shape (3,), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise RoutingError(
                f"non-finite guidance_vec entry: {arr.tolist()}",
                stage="routing", details={"guidance_vec": arr.tolist()})
        if np.any(arr < 0.0):
            raise RoutingError(
                f"negative guidance_vec entry: {arr.tolist()}",
                stage="routing", details={"guidance_vec": arr.tolist()})
        guid = (float(arr[0]), float(arr[1]), float(arr[2]))

    mult = None
    if layer_multipliers is not None:
        mult = np.asarray(layer_multipliers, dtype=float)
        if mult.shape != (num_layers,):
            raise ValueError(
                f"layer_multipliers needs {num_layers} entries, got "
                f"{len(mult)}")
        if not np.all(np.isfinite(mult)):
            raise RoutingError(
                f"non-finite layer_multipliers entry: {mult.tolist()}",
                stage="routing", details={"layer_multipliers": mult.tolist()})
        if np.any(mult < 0.0):
            raise RoutingError(
                f"negative layer_multipliers entry: {mult.tolist()}",
                stage="routing", details={"layer_multipliers": mult.tolist()})
    return guid, mult


class CostField:
    """Flat per-connection cost arrays over the padded grid.

    Built once per :meth:`AStarRouter.route_connection
    <repro.router.astar.AStarRouter.route_connection>` (or reused from the
    :class:`AddField` cache) and read by its expansion loop.  Every term is
    computed exactly as the seed router computed it, so float sums — and
    therefore tie-breaking — match it bit for bit.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        *,
        guid: tuple[float, float, float],
        layer_multipliers: "np.ndarray | None",
        soft: bool,
        targets: "set[GridNode] | frozenset[GridNode]",
        wire_cost: float,
        wrong_way_penalty: float,
        via_cost: float,
        add_core: "AddField",
        man_cache: "dict | None" = None,
    ) -> None:
        nx, ny, nl = grid.nx, grid.ny, grid.num_layers
        self.nx, self.ny = nx, ny
        self.nyp, self.nlp = ny + 2, nl + 2
        self.dix = self.nyp * self.nlp  # +x neighbor stride (padded)
        self.soft = soft

        # Per-(layer, axis) planar step cost, matching the seed router's
        # arithmetic term for term (identical float rounding).
        planar = np.empty((nl, 2), dtype=np.float64)
        for layer in range(nl):
            pref_axis = grid.preferred_direction(layer).axis
            scale = 1.0 if layer_multipliers is None else float(
                layer_multipliers[layer])
            for axis in range(2):
                base = wire_cost if axis == pref_axis else (
                    wire_cost * wrong_way_penalty)
                planar[layer, axis] = base * guid[axis] * scale
        self.via = via_cost * guid[2]
        self.h_scale = float(planar.min())

        # Padded per-layer planar step costs, indexed by ``node % nlp``.
        pad_x = np.zeros(self.nlp, dtype=np.float64)
        pad_y = np.zeros(self.nlp, dtype=np.float64)
        pad_x[1:-1] = planar[:, 0]
        pad_y[1:-1] = planar[:, 1]
        self.step_x = pad_x.tolist()
        self.step_y = pad_y.tolist()

        # Additive entry costs.  Soft mode keeps the history and
        # present-penalty terms separate so float sums associate exactly
        # like the seed router's ``((g + step) + extra) + history`` chain;
        # hard mode reads the combined list.  The list mirrors are built
        # lazily and cached on the :class:`AddField` (see the properties
        # below), so only the mode in use pays their ``tolist`` cost.
        self._add_core = add_core

        self._man_cache = man_cache
        self.retarget(targets)

    @property
    def add_list(self) -> list:
        """Hard-mode combined-cost list, lazily built."""
        return self._add_core.padded_combined_list()

    @property
    def extra_list(self) -> "list | None":
        """Soft-mode present-penalty list; None in hard mode."""
        return self._add_core.padded_split()[0] if self.soft else None

    @property
    def hist_list(self) -> list:
        """History term list in the seed router's association order."""
        if self.soft:
            return self._add_core.padded_split()[1]
        return self._add_core.padded_combined_list()

    def retarget(self, targets: "set[GridNode] | frozenset[GridNode]"
                 ) -> None:
        """Point the target-dependent fields at a new target set.

        Everything else (step costs, additive costs) depends only on
        (grid state, guidance, multipliers, mode) and is reused across the
        connections of one net attempt — the router caches the field per
        that key and calls this per connection.
        """
        nx, ny = self.nx, self.ny
        self.target_nodes = frozenset(self.encode(t) for t in targets)

        # Heuristic field.  Single-target searches (the iterative router's
        # only shape) read an *unscaled* integer Manhattan-distance field,
        # cacheable across connections/guidance in ``man_cache``, and the
        # search multiplies by ``h_factor`` per push — ``man * h_scale`` is
        # the seed router's exact float expression.  Multi-target searches
        # precompute the full scaled field as a vectorized min over the
        # target coordinate arrays.
        if len(self.target_nodes) == 1:
            target = next(iter(targets))
            key = (target[0], target[1])
            man_cache = self._man_cache
            cached = None if man_cache is None else man_cache.get(key)
            if cached is None:
                mx = np.abs(np.arange(-1, nx + 1, dtype=np.int64)
                            - target[0])
                my = np.abs(np.arange(-1, ny + 1, dtype=np.int64)
                            - target[1])
                cached = np.broadcast_to(
                    (mx[:, None] + my[None, :])[:, :, None],
                    (nx + 2, self.nyp, self.nlp)).reshape(-1).tolist()
                if man_cache is not None:
                    man_cache[key] = cached
            self.h_list = cached
            self.h_factor = self.h_scale
            return

        txs = np.fromiter((t[0] for t in targets), dtype=np.int64,
                          count=len(targets))
        tys = np.fromiter((t[1] for t in targets), dtype=np.int64,
                          count=len(targets))
        man = (np.abs(np.arange(nx)[:, None] - txs[None, :])[:, None, :]
               + np.abs(np.arange(ny)[:, None] - tys[None, :])[None, :, :])
        h_t = man * self.h_scale  # (nx, ny, T)
        h = np.zeros((nx + 2, self.nyp, self.nlp), dtype=np.float64)
        h[1:-1, 1:-1, 1:-1] = h_t.min(axis=2)[:, :, None]
        self.h_list = h.reshape(-1).tolist()
        self.h_factor = 1.0

    # -- coordinates ---------------------------------------------------------

    def encode(self, cell: GridNode) -> int:
        """Padded flat index of a grid cell."""
        return ((cell[0] + 1) * self.nyp + cell[1] + 1) * self.nlp + cell[2] + 1

    def decode(self, node: int) -> GridNode:
        """Grid cell of a padded flat index."""
        layer = node % self.nlp
        rem = node // self.nlp
        return (rem // self.nyp - 1, rem % self.nyp - 1, layer - 1)


class AddField:
    """Additive-entry cost volumes for one (net, mode) grid state.

    Holds the occupancy/ownership-derived parts of the cost field — the
    only parts that rescan the grid — and caches their padded list forms
    so :class:`~repro.router.iterative.IterativeRouter` can reuse one
    instance across every connection of a net attempt (the grid is static
    within one attempt).  Instances must be discarded whenever
    occupancy or history change, which also keeps the component labels
    cached by :meth:`reaches` from ever going stale.

    Attributes:
        combined: ``history + extra`` with ``inf`` on impassable cells
            (hard mode).
        history: the weighted history term alone (finite everywhere).
        extra: present penalty on foreign cells (soft mode), ``inf`` on
            impassable cells.
    """

    def __init__(self, combined: np.ndarray, history: np.ndarray,
                 extra: np.ndarray) -> None:
        self.combined = combined
        self.history = history
        self.extra = extra
        #: (guidance, multipliers, mode) -> reusable :class:`CostField`
        #: (see ``AStarRouter.route_connection``); dies with the instance,
        #: so it can never outlive the grid state it was built from.
        self.field_cache: dict = {}
        self._padded_list: "list | None" = None
        self._split: "tuple[list, list] | None" = None
        self._labels: "np.ndarray | None" = None

    def _pad(self, volume: np.ndarray, fill: float) -> np.ndarray:
        nx, ny, nl = self.combined.shape
        padded = np.full((nx + 2, ny + 2, nl + 2), fill, dtype=np.float64)
        padded[1:-1, 1:-1, 1:-1] = volume
        return padded.reshape(-1)

    def padded_combined_list(self) -> list:
        """Padded flat combined costs, cached."""
        if self._padded_list is None:
            self._padded_list = self._pad(self.combined, INF).tolist()
        return self._padded_list

    def padded_split(self) -> "tuple[list, list]":
        """Padded flat (extra, history) lists for soft mode, cached."""
        if self._split is None:
            self._split = (self._pad(self.extra, INF).tolist(),
                           self._pad(self.history, 0.0).tolist())
        return self._split

    def reaches(self, sources: "set[GridNode]",
                targets: "set[GridNode] | frozenset[GridNode]") -> bool:
        """Whether a search over these costs can reach any target.

        The search pushes every source, passable or not, and afterwards
        only passable cells.  So the cells it can ever pop are the sources
        plus the passable cells in the component of a source or of one
        of a source's six neighbours; a target outside that set is
        unreachable, whatever the search budget.

        Passable cells are labelled with their 6-connected component
        (>= 1), impassable and border cells with 0, once per instance:
        guidance and layer multipliers only scale step costs, so one
        labelling serves every connection routed on it.
        """
        if not targets.isdisjoint(sources):
            return True
        if self._labels is None:
            labels, _ = ndimage.label(self.combined != INF,
                                      structure=_SIX_CONNECTED)
            self._labels = np.pad(labels, 1).reshape(-1)
        labels = self._labels
        _, ny, nl = self.combined.shape
        nlp = nl + 2
        dix = (ny + 2) * nlp
        moves = np.array([0, dix, -dix, nlp, -nlp, 1, -1], dtype=np.intp)
        near = labels[self._padded_index(sources)[:, None] + moves]
        reachable = set(near.ravel().tolist())
        reachable.discard(0)
        return any(label in reachable
                   for label in labels[self._padded_index(targets)].tolist())

    def _padded_index(self, cells) -> np.ndarray:
        _, ny, nl = self.combined.shape
        xyz = np.array(list(cells), dtype=np.intp).reshape(-1, 3) + 1
        return (xyz[:, 0] * (ny + 2) + xyz[:, 1]) * (nl + 2) + xyz[:, 2]


def build_add_core(
    grid: RoutingGrid,
    *,
    net: str,
    soft: bool,
    present_penalty: float,
    history_weight: float,
) -> AddField:
    """The unpadded additive-entry cost volumes for one (net, mode).

    Built apart from :class:`CostField` so
    :class:`~repro.router.iterative.IterativeRouter` can reuse it across
    the guidance-dependent connections of one net attempt (occupancy and
    history only change between net attempts, never inside one).
    """
    occ = grid.occupancy
    hist = grid.history * history_weight
    net_idx = grid.net_index[net]
    foreign = (occ != FREE) & (occ != BLOCKED) & (occ != net_idx)
    if soft:
        extra = np.where(occ == BLOCKED, INF,
                         foreign * present_penalty)
        combined = np.where(occ == BLOCKED, INF,
                            hist + foreign * present_penalty)
    else:
        impassable = (occ == BLOCKED) | foreign
        extra = np.where(impassable, INF, 0.0)
        combined = np.where(impassable, INF, hist)
    return AddField(combined=combined, history=hist, extra=extra)
