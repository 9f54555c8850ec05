"""The seed A* router, kept as the bit-identity oracle for the router.

:class:`ReferenceRouter` is the original maze router, verbatim: a
``heapq`` of ``(f, g, node)`` float tuples over flat numpy arrays, with
the heuristic recomputed on every push.  It defines the routing
semantics — pop order ``(f, g, node)``, first-writer-wins on g-score
ties — and :class:`repro.router.astar.AStarRouter` must reproduce its
paths, and its expansion counts on every search it runs.  It subclasses
``AStarRouter`` so it drops in as ``IterativeRouter.astar`` for
whole-circuit comparisons, and ``benchmarks/bench_perf.py`` times it as
the in-run speed baseline.

The seed engine searches every connection, while ``AStarRouter`` proves
some hard-mode connections unreachable without a search, so whole-run
expansion totals differ.  :func:`record_connections` and
:func:`connection_parity` compare the two call by call instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.router.astar import AStarRouter, CostParams, _SearchState
from repro.router.costfield import validate_connection_inputs
from repro.router.grid import BLOCKED, FREE, GridNode, RoutingGrid


class ReferenceRouter(AStarRouter):
    """Drop-in :class:`AStarRouter` that searches with the seed engine."""

    def __init__(self, grid: RoutingGrid,
                 params: CostParams | None = None) -> None:
        super().__init__(grid, params)
        self._ref_state: _SearchState | None = None

    def _get_ref_state(self) -> _SearchState:
        if self._ref_state is None:
            grid = self.grid
            total = grid.nx * grid.ny * grid.num_layers
            self._ref_state = _SearchState(
                np.empty(total, dtype=np.float64),
                np.empty(total, dtype=np.int64),
                np.zeros(total, dtype=np.uint32),
            )
        return self._ref_state

    def route_connection(self, net, sources, targets, guidance_vec=None,
                         soft=False, max_expansions=200_000,
                         layer_multipliers=None, add_core=None):
        """Same contract as :meth:`AStarRouter.route_connection`.

        ``add_core`` is accepted and ignored: the seed engine reads
        occupancy and history straight from the grid.
        """
        if not sources or not targets:
            return None
        guid, mult = validate_connection_inputs(
            guidance_vec, layer_multipliers, self.grid.num_layers)
        return self._route_reference(
            net, sources, targets, guid, mult, soft, max_expansions)

    def _route_reference(self, net, sources, targets, guid, mult, soft,
                         max_expansions):
        """The seed router, verbatim: semantics oracle and perf baseline."""
        grid = self.grid
        p = self.params
        nx, ny, nl = grid.nx, grid.ny, grid.num_layers
        # Per-(layer, axis) planar step cost, and via step cost.
        planar_cost = [[0.0, 0.0] for _ in range(nl)]
        for layer in range(nl):
            pref_axis = grid.preferred_direction(layer).axis
            scale = 1.0 if mult is None else float(mult[layer])
            for axis in range(2):
                base = p.wire_cost if axis == pref_axis else (
                    p.wire_cost * p.wrong_way_penalty)
                planar_cost[layer][axis] = base * guid[axis] * scale
        via_cost = p.via_cost * guid[2]
        h_scale = min(min(row) for row in planar_cost)

        # Integer cell encoding matching C-order of the occupancy array.
        def encode(cell: GridNode) -> int:
            return (cell[0] * ny + cell[1]) * nl + cell[2]

        target_nodes = {encode(t) for t in targets}
        target_xy = [(t[0], t[1]) for t in targets]
        single_target = target_xy[0] if len(target_xy) == 1 else None

        def heuristic(ix: int, iy: int, l: int) -> float:
            if single_target is not None:
                tx, ty = single_target
                return (abs(tx - ix) + abs(ty - iy)) * h_scale
            return min(abs(tx - ix) + abs(ty - iy)
                       for tx, ty in target_xy) * h_scale

        occ = grid.occupancy.reshape(-1)
        history = grid.history.reshape(-1)
        net_idx = grid.net_index[net]
        hist_w = p.history_weight
        present = p.present_penalty
        free, blocked = FREE, BLOCKED

        open_heap: list[tuple[float, float, int]] = []
        state = self._get_ref_state()
        g_arr, parent_arr, stamp = state.g, state.parent, state.stamp
        gen = state.next_generation()
        # Sources are pushed in sorted order so tie-breaking (and therefore
        # the chosen path) is identical across processes regardless of set
        # iteration order / PYTHONHASHSEED.
        for s in sorted(sources):
            node = encode(s)
            g_arr[node] = 0.0
            parent_arr[node] = -1
            stamp[node] = gen
            heapq.heappush(open_heap, (heuristic(s[0], s[1], s[2]), 0.0, node))

        heappush, heappop = heapq.heappush, heapq.heappop
        expansions = 0
        found: list[GridNode] | None = None
        while open_heap and expansions < max_expansions:
            _, g, node = heappop(open_heap)
            if g > g_arr[node]:
                continue
            if node in target_nodes:
                found = self._reconstruct(parent_arr, node, ny, nl)
                break
            expansions += 1
            layer = node % nl
            rem = node // nl
            iy = rem % ny
            ix = rem // ny
            costs = planar_cost[layer]
            # (neighbor, step_cost, in_bounds)
            steps = (
                (node + ny * nl, costs[0], ix + 1 < nx),
                (node - ny * nl, costs[0], ix >= 1),
                (node + nl, costs[1], iy + 1 < ny),
                (node - nl, costs[1], iy >= 1),
                (node + 1, via_cost, layer + 1 < nl),
                (node - 1, via_cost, layer >= 1),
            )
            for nxt, step, ok in steps:
                if not ok:
                    continue
                owner = occ[nxt]
                if owner == blocked:
                    continue
                extra = 0.0
                if owner != free and owner != net_idx:
                    if not soft:
                        continue
                    extra = present
                new_g = g + step + extra + hist_w * history[nxt]
                if stamp[nxt] != gen or new_g < g_arr[nxt]:
                    g_arr[nxt] = new_g
                    parent_arr[nxt] = node
                    stamp[nxt] = gen
                    n_rem = nxt // nl
                    n_layer = nxt % nl
                    heappush(open_heap,
                             (new_g + heuristic(n_rem // ny, n_rem % ny,
                                                n_layer),
                              new_g, nxt))
        self._note_expansions("reference", expansions)
        return found

    @staticmethod
    def _reconstruct(
        parent: np.ndarray, end: int, ny: int, nl: int
    ) -> list[GridNode]:
        path: list[GridNode] = []
        node = end
        while node != -1:
            layer = node % nl
            rem = node // nl
            path.append((rem // ny, rem % ny, layer))
            node = int(parent[node])
        path.reverse()
        return path


@dataclass(frozen=True)
class ConnectionCall:
    """One recorded ``route_connection`` call and its outcome.

    Attributes:
        sources, targets, soft: the call's inputs (sources copied, since
            the caller grows its tree set in place).
        result: the returned path as a tuple, or None.
        expansions: nodes the call expanded.
        skipped: True when the call was proven unreachable and not
            searched (never for :class:`ReferenceRouter`).
    """

    sources: frozenset
    targets: frozenset
    soft: bool
    result: "tuple | None"
    expansions: int
    skipped: bool


def record_connections(astar: AStarRouter) -> list[ConnectionCall]:
    """Log every ``route_connection`` call of ``astar`` from now on.

    Shadows the bound method on the instance; returns the live log.
    """
    calls: list[ConnectionCall] = []
    route = astar.route_connection

    def recorded(net, sources, targets, *args, soft=False, **kwargs):
        expansions = astar.expansions_total
        unreachable = astar.unreachable_total
        path = route(net, sources, targets, *args, soft=soft, **kwargs)
        calls.append(ConnectionCall(
            sources=frozenset(sources), targets=frozenset(targets),
            soft=soft, result=None if path is None else tuple(path),
            expansions=astar.expansions_total - expansions,
            skipped=astar.unreachable_total > unreachable))
        return path

    astar.route_connection = recorded
    return calls


def connection_parity(ours: list[ConnectionCall],
                      oracle: list[ConnectionCall]) -> list[str]:
    """Per-connection differences between a router and the oracle.

    Empty when the two made the same calls (sources, targets, mode) in the
    same order with the same results, every call ``ours`` searched
    expanded exactly as many nodes as the oracle's, and every call
    ``ours`` skipped expanded nothing and was one the oracle failed.
    """
    problems: list[str] = []
    if len(ours) != len(oracle):
        problems.append(f"{len(ours)} connection calls, oracle made "
                        f"{len(oracle)}")
    for i, (a, b) in enumerate(zip(ours, oracle)):
        if (a.sources, a.targets, a.soft) != (b.sources, b.targets, b.soft):
            # Every later call would be misaligned too.
            problems.append(f"call {i}: a different connection than the "
                            f"oracle's")
            break
        if a.result != b.result:
            problems.append(f"call {i}: result differs from the oracle's")
        if a.skipped:
            if b.result is not None:
                problems.append(f"call {i}: skipped as unreachable, but the "
                                f"oracle routed it")
            if a.expansions:
                problems.append(f"call {i}: skipped, yet expanded "
                                f"{a.expansions} nodes")
        elif a.expansions != b.expansions:
            problems.append(f"call {i}: {a.expansions} expansions, oracle "
                            f"{b.expansions}")
    return problems
