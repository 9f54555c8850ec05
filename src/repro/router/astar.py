"""Multi-source multi-target A* maze routing on the 3D grid.

Move costs honor per-layer preferred directions, via costs, PathFinder
history, and the paper's non-uniform guidance: a step along direction ``d``
is scaled by the active guidance vector's ``C[d]`` (Section 3.1 — a smaller
``C[d]`` encourages wires along ``d``).

Routing is the inner loop of dataset generation, so all per-node
arithmetic is precomputed into flat cost fields
(``repro.router.costfield``) over a *padded* grid: the unrolled expansion
loop is pure Python-list lookups — no numpy scalar indexing, no bounds
checks, no per-push heuristic calls.  Paths are bit-identical to the
seed router (pop order ``(f, g, node)``, first-writer-wins on g-score
ties), which the test suite keeps as an oracle in
``tests/router_oracle.py``; expansion counts are identical for every
search that runs.  Hard-mode connections with no passable path are
proven unreachable from the component labels of
:meth:`~repro.router.costfield.AddField.reaches` and never searched: a
failed hard search would flood the whole reachable region only to
return None.

G-scores, parents, and visited marks live in preallocated flat state
indexed by the cell encoding, reused across connections via a generation
stamp (bumping one counter invalidates the whole previous search in O(1));
the stamp wraps safely at ``uint32`` max by zero-filling once.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields

import numpy as np

from repro.router.costfield import (
    CostField,
    INF,
    build_add_core,
    validate_connection_inputs,
)
from repro.router.grid import GridNode, RoutingGrid

_STAMP_MAX = np.iinfo(np.uint32).max


@dataclass(frozen=True)
class CostParams:
    """Router cost knobs; every one must be finite and >= 0.

    Attributes:
        wire_cost: base cost of a planar unit step in the preferred
            direction.
        wrong_way_penalty: multiplier for planar steps against the layer's
            preferred direction.
        via_cost: base cost of a layer change.
        present_penalty: additive cost of stepping onto a cell owned by
            another net (soft/negotiation mode only).
        history_weight: multiplier on the grid's history cost.
    """

    wire_cost: float = 1.0
    wrong_way_penalty: float = 2.5
    via_cost: float = 4.0
    present_penalty: float = 25.0
    history_weight: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{f.name} must be finite and >= 0, got {value}")


class _SearchState:
    """Flat g/parent/stamp storage with O(1) generation reset."""

    __slots__ = ("g", "parent", "stamp", "generation")

    def __init__(self, g, parent, stamp) -> None:
        self.g = g
        self.parent = parent
        self.stamp = stamp
        self.generation = 0

    def next_generation(self) -> int:
        if self.generation >= _STAMP_MAX:
            # Wrapped: stale stamps could alias the new generation.
            if isinstance(self.stamp, list):
                self.stamp[:] = [0] * len(self.stamp)
            else:
                self.stamp.fill(0)
            self.generation = 0
        self.generation += 1
        return self.generation


class AStarRouter:
    """Routes individual 2-pin connections on a :class:`RoutingGrid`.

    Args:
        grid: the occupancy grid to search.
        params: cost knobs; defaults to :class:`CostParams`.
    """

    def __init__(self, grid: RoutingGrid,
                 params: CostParams | None = None) -> None:
        self.grid = grid
        self.params = params or CostParams()
        #: Nodes expanded across every search this router has run; the
        #: ``route_expansions_total`` counter reads the deltas.
        self.expansions_total = 0
        #: Expansions by search mode; the heap engine is the only one, so
        #: the sole key is ``"scalar"``.
        self.expansions_by_mode: dict[str, int] = {}
        #: Hard-mode connections proven unreachable and not searched; the
        #: ``route_unreachable_total`` counter reads the deltas.
        self.unreachable_total = 0
        # Search state, lazily allocated.
        self._list_state: _SearchState | None = None
        # (tx, ty) -> padded unscaled Manhattan heuristic field, shared
        # across connections, guidance vectors, and rip-up rounds.
        self._man_cache: dict = {}

    # -- state management ---------------------------------------------------

    def _padded_total(self) -> int:
        grid = self.grid
        return (grid.nx + 2) * (grid.ny + 2) * (grid.num_layers + 2)

    def _get_list_state(self) -> _SearchState:
        if self._list_state is None:
            total = self._padded_total()
            self._list_state = _SearchState(
                [0.0] * total, [-1] * total, [0] * total)
        return self._list_state

    def _note_expansions(self, mode: str, count: int) -> None:
        self.expansions_total += count
        self.expansions_by_mode[mode] = (
            self.expansions_by_mode.get(mode, 0) + count)

    # -- public API ---------------------------------------------------------

    def route_connection(
        self,
        net: str,
        sources: set[GridNode],
        targets: set[GridNode],
        guidance_vec: np.ndarray | None = None,
        soft: bool = False,
        max_expansions: int = 200_000,
        layer_multipliers: "np.ndarray | None" = None,
        add_core=None,
    ) -> list[GridNode] | None:
        """Find a cheapest path from any source to any target.

        Args:
            net: the net being routed (its own cells are passable).
            sources: starting cells (the already-routed tree).
            targets: goal cells.
            guidance_vec: length-3 guidance multipliers (x, y, z); neutral
                when None.  Non-finite or negative entries raise
                :class:`~repro.reliability.errors.RoutingError`.
            soft: when True, cells owned by other nets are passable at
                ``present_penalty`` (negotiation mode); when False they are
                hard blocked.
            max_expansions: search budget before giving up.
            layer_multipliers: optional per-layer planar-cost multipliers
                (length = num layers); e.g. supply nets get > 1 on thin
                lower metals to prefer routing on thick upper metals.
                Non-finite or negative entries raise ``RoutingError``.
            add_core: optional precomputed
                :class:`~repro.router.costfield.AddField` for this
                (net, soft) state, reused across a net's connections;
                built for this call alone when None.

        Returns:
            The path as a list of grid cells from a source to a target, or
            None when no path exists within budget.  In hard mode a
            target outside the sources' passable components returns None
            without a search (counted in :attr:`unreachable_total`).
        """
        if not sources or not targets:
            return None
        guid, mult = validate_connection_inputs(
            guidance_vec, layer_multipliers, self.grid.num_layers)
        p = self.params
        if add_core is None:
            add_core = build_add_core(
                self.grid, net=net, soft=soft,
                present_penalty=p.present_penalty,
                history_weight=p.history_weight)
        if not soft and not add_core.reaches(sources, targets):
            self.unreachable_total += 1
            return None
        # The add_core pins the grid state, so the whole cost field is
        # reusable across a net's connections whenever guidance and
        # multipliers repeat — only the target-dependent heuristic needs
        # repointing.
        cache_key = (guid, None if mult is None else tuple(mult.tolist()),
                     soft)
        field = add_core.field_cache.get(cache_key)
        if field is not None:
            field.retarget(targets)
        else:
            field = CostField(
                self.grid, guid=guid, layer_multipliers=mult, soft=soft,
                targets=targets, wire_cost=p.wire_cost,
                wrong_way_penalty=p.wrong_way_penalty, via_cost=p.via_cost,
                add_core=add_core, man_cache=self._man_cache)
            add_core.field_cache[cache_key] = field
        return self._route_scalar(field, sources, max_expansions)

    # -- heap engine --------------------------------------------------------

    def _route_scalar(self, field: CostField, sources, max_expansions):
        """Heap engine over precomputed list fields (padded, unrolled).

        Emulates the seed router exactly: identical pop keys
        ``(f, g, node)``, identical float arithmetic (see
        ``costfield.CostField``), identical first-writer-wins relaxation.
        """
        state = self._get_list_state()
        g_l, par_l, st_l = state.g, state.parent, state.stamp
        gen = state.next_generation()
        h_l = field.h_list
        step_x, step_y = field.step_x, field.step_y
        via = field.via
        nlp = field.nlp
        dx = field.dix
        dy = nlp
        hf = field.h_factor
        t_set = field.target_nodes
        heap: list[tuple[float, float, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        for s in sorted(sources):
            node = field.encode(s)
            g_l[node] = 0.0
            par_l[node] = -1
            st_l[node] = gen
            push(heap, (h_l[node] * hf, 0.0, node))

        if field.extra_list is None:
            expansions, found = self._scalar_hard(
                heap, g_l, par_l, st_l, gen, field.add_list, h_l, hf, step_x, step_y,
                via, nlp, dx, dy, t_set, max_expansions)
        else:
            expansions, found = self._scalar_soft(
                heap, g_l, par_l, st_l, gen, field.extra_list,
                field.hist_list, h_l, hf, step_x, step_y, via, nlp, dx, dy,
                t_set, max_expansions)
        self._note_expansions("scalar", expansions)
        if found < 0:
            return None
        return self._reconstruct_padded(field, par_l, found)

    @staticmethod
    def _scalar_hard(heap, g_l, par_l, st_l, gen, add_l, h_l, hf, step_x,
                     step_y, via, nlp, dx, dy, t_set, max_expansions):
        """Hard-blocked inner loop: ``new_g = (g + step) + add``.

        With hard blocking the seed router's ``extra`` term is always
        ``0.0`` on passable cells, so folding history into one additive
        field keeps float sums bit-identical.
        """
        push, pop = heapq.heappush, heapq.heappop
        inf = INF
        expansions = 0
        found = -1
        while heap and expansions < max_expansions:
            _, g, node = pop(heap)
            if g > g_l[node]:
                continue
            if node in t_set:
                found = node
                break
            expansions += 1
            layer = node % nlp
            cx = step_x[layer]
            cy = step_y[layer]
            # Six unrolled neighbor relaxations in the seed's direction
            # order (+x, -x, +y, -y, +z, -z).  Padding guarantees every
            # index is valid; ``add == inf`` marks blocked/foreign/border.
            nxt = node + dx
            a = add_l[nxt]
            if a != inf:
                ng = g + cx + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node - dx
            a = add_l[nxt]
            if a != inf:
                ng = g + cx + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node + dy
            a = add_l[nxt]
            if a != inf:
                ng = g + cy + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node - dy
            a = add_l[nxt]
            if a != inf:
                ng = g + cy + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node + 1
            a = add_l[nxt]
            if a != inf:
                ng = g + via + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
            nxt = node - 1
            a = add_l[nxt]
            if a != inf:
                ng = g + via + a
                if st_l[nxt] != gen:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    st_l[nxt] = gen
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                elif ng < g_l[nxt]:
                    g_l[nxt] = ng
                    par_l[nxt] = node
                    push(heap, (ng + h_l[nxt] * hf, ng, nxt))
        return expansions, found

    @staticmethod
    def _scalar_soft(heap, g_l, par_l, st_l, gen, extra_l, hist_l, h_l, hf,
                     step_x, step_y, via, nlp, dx, dy, t_set,
                     max_expansions):
        """Soft-mode inner loop: ``new_g = ((g + step) + extra) + hist``.

        Keeps the present-penalty and history terms as separate additions
        in the seed router's association order — folding them first could
        shift the sum by an ulp and flip a float tie.
        """
        push, pop = heapq.heappush, heapq.heappop
        inf = INF
        expansions = 0
        found = -1
        deltas = (dx, -dx, dy, -dy, 1, -1)
        while heap and expansions < max_expansions:
            _, g, node = pop(heap)
            if g > g_l[node]:
                continue
            if node in t_set:
                found = node
                break
            expansions += 1
            layer = node % nlp
            cx = step_x[layer]
            cy = step_y[layer]
            costs = (cx, cx, cy, cy, via, via)
            for i in range(6):
                nxt = node + deltas[i]
                e = extra_l[nxt]
                if e != inf:
                    ng = ((g + costs[i]) + e) + hist_l[nxt]
                    if st_l[nxt] != gen:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        st_l[nxt] = gen
                        push(heap, (ng + h_l[nxt] * hf, ng, nxt))
                    elif ng < g_l[nxt]:
                        g_l[nxt] = ng
                        par_l[nxt] = node
                        push(heap, (ng + h_l[nxt] * hf, ng, nxt))
        return expansions, found

    # -- path reconstruction ------------------------------------------------

    @staticmethod
    def _reconstruct_padded(field: CostField, parent, end: int
                            ) -> list[GridNode]:
        path: list[GridNode] = []
        node = end
        while node != -1:
            path.append(field.decode(node))
            node = int(parent[node])
        path.reverse()
        return path
