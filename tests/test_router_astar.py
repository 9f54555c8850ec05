"""Tests for the A* maze router."""

import numpy as np
import pytest

from repro.router import AStarRouter, CostParams, RouterConfig, RoutingGrid


@pytest.fixture()
def router(fresh_grid):
    return AStarRouter(fresh_grid)


def _free_cell(grid, layer=1, start=(2, 2)):
    """Find a free cell on a given layer."""
    for ix in range(start[0], grid.nx):
        for iy in range(start[1], grid.ny):
            if grid.occupancy[ix, iy, layer] == -1:
                return (ix, iy, layer)
    raise AssertionError("no free cell found")


class TestBasicRouting:
    def test_trivial_same_cell(self, router, fresh_grid):
        net = fresh_grid.net_names[0]
        cell = (3, 3, 1)
        path = router.route_connection(net, {cell}, {cell})
        assert path == [cell]

    def test_straight_line(self, router, fresh_grid):
        net = fresh_grid.net_names[0]
        a, b = (2, 5, 1), (9, 5, 1)
        path = router.route_connection(net, {a}, {b})
        assert path is not None
        assert path[0] == a and path[-1] == b

    def test_path_is_connected(self, router, fresh_grid):
        net = fresh_grid.net_names[0]
        path = router.route_connection(net, {(2, 2, 1)}, {(10, 8, 2)})
        assert path is not None
        for u, v in zip(path, path[1:]):
            assert sum(abs(a - b) for a, b in zip(u, v)) == 1

    def test_path_avoids_blocked(self, router, fresh_grid):
        net = fresh_grid.net_names[0]
        blocked = set()
        fresh_grid.occupancy[5, :, 1] = -2  # wall on layer 1
        for iy in range(fresh_grid.ny):
            blocked.add((5, iy, 1))
        path = router.route_connection(net, {(2, 5, 1)}, {(9, 5, 1)})
        assert path is not None
        assert not (set(path) & blocked)

    def test_other_net_blocks_in_hard_mode(self, router, fresh_grid):
        net_a, net_b = fresh_grid.net_names[:2]
        # Wall of net_b across every layer at ix = 5.
        for iy in range(fresh_grid.ny):
            for layer in range(fresh_grid.num_layers):
                fresh_grid.occupancy[5, iy, layer] = fresh_grid.net_index[net_b]
        path = router.route_connection(net_a, {(2, 5, 1)}, {(9, 5, 1)}, soft=False)
        assert path is None

    def test_soft_mode_crosses_with_penalty(self, router, fresh_grid):
        net_a, net_b = fresh_grid.net_names[:2]
        for iy in range(fresh_grid.ny):
            for layer in range(fresh_grid.num_layers):
                fresh_grid.occupancy[5, iy, layer] = fresh_grid.net_index[net_b]
        path = router.route_connection(net_a, {(2, 5, 1)}, {(9, 5, 1)}, soft=True)
        assert path is not None

    def test_multi_source(self, router, fresh_grid):
        net = fresh_grid.net_names[0]
        sources = {(2, 2, 1), (8, 8, 1)}
        path = router.route_connection(net, sources, {(9, 8, 1)})
        assert path is not None
        assert path[0] in sources
        assert len(path) <= 3  # picks the near source

    def test_empty_sources_returns_none(self, router):
        assert router.route_connection("VDD", set(), {(1, 1, 1)}) is None

    def test_expansion_budget(self, router, fresh_grid):
        net = fresh_grid.net_names[0]
        path = router.route_connection(
            net, {(2, 2, 1)}, {(fresh_grid.nx - 2, fresh_grid.ny - 2, 1)},
            max_expansions=3,
        )
        assert path is None


class TestCosts:
    def test_preferred_direction_on_layer(self, fresh_grid):
        """On M2 (vertical-preferred) a horizontal run should detour to an
        adjacent horizontal layer when vias are cheap."""
        params = CostParams(wrong_way_penalty=10.0, via_cost=0.5)
        router = AStarRouter(fresh_grid, params)
        net = fresh_grid.net_names[0]
        path = router.route_connection(net, {(2, 5, 1)}, {(12, 5, 1)})
        layers = {c[2] for c in path}
        assert layers != {1}, "should have used another layer for the x-run"

    def test_guidance_steers_direction(self, fresh_grid):
        """Guidance with cheap x and expensive y flips the chosen detour."""
        net = fresh_grid.net_names[0]
        router = AStarRouter(fresh_grid, CostParams(via_cost=100.0,
                                                    wrong_way_penalty=1.0))
        a, b = (3, 3, 1), (9, 9, 1)
        cheap_x = router.route_connection(net, {a}, {b},
                                          guidance_vec=np.array([0.1, 3.0, 1.0]))
        cheap_y = router.route_connection(net, {a}, {b},
                                          guidance_vec=np.array([3.0, 0.1, 1.0]))
        # The cheap-x path should do its x-moves early (first step in x);
        # the cheap-y path starts with y-moves.
        dx_first = abs(cheap_x[1][0] - cheap_x[0][0])
        dy_first = abs(cheap_y[1][1] - cheap_y[0][1])
        assert dx_first == 1
        assert dy_first == 1

    def test_guidance_z_cost_controls_vias(self, fresh_grid):
        net = fresh_grid.net_names[0]
        router = AStarRouter(fresh_grid)
        a, b = (3, 3, 1), (9, 3, 1)
        few_vias = router.route_connection(net, {a}, {b},
                                           guidance_vec=np.array([1.0, 1.0, 50.0]))
        many_ok = router.route_connection(net, {a}, {b},
                                          guidance_vec=np.array([1.0, 1.0, 0.01]))
        vias_few = sum(1 for u, v in zip(few_vias, few_vias[1:]) if u[2] != v[2])
        vias_many = sum(1 for u, v in zip(many_ok, many_ok[1:]) if u[2] != v[2])
        assert vias_few <= vias_many

    def test_history_cost_diverts(self, fresh_grid):
        net = fresh_grid.net_names[0]
        router = AStarRouter(fresh_grid)
        a, b = (2, 5, 1), (9, 5, 1)
        base = router.route_connection(net, {a}, {b})
        # Penalize the found path heavily; rerouting should avoid it.
        for cell in base[1:-1]:
            fresh_grid.history[cell] = 1000.0
        rerouted = router.route_connection(net, {a}, {b})
        assert not (set(rerouted[1:-1]) & set(base[1:-1]))

    def test_invalid_guidance_shape_raises(self, router):
        with pytest.raises(ValueError):
            router.route_connection("VDD", {(1, 1, 1)}, {(2, 2, 1)},
                                    guidance_vec=np.ones(4))


class TestConfigValidation:
    @pytest.mark.parametrize("make, field", [
        (lambda: CostParams(wire_cost=float("nan")), "wire_cost"),
        (lambda: CostParams(wrong_way_penalty=float("inf")),
         "wrong_way_penalty"),
        (lambda: CostParams(via_cost=-4.0), "via_cost"),
        (lambda: CostParams(present_penalty=-1.0), "present_penalty"),
        (lambda: CostParams(history_weight=float("nan")), "history_weight"),
        (lambda: RouterConfig(max_iterations=0), "max_iterations"),
        (lambda: RouterConfig(max_expansions=0), "max_expansions"),
        (lambda: RouterConfig(history_increment=-2.0), "history_increment"),
        (lambda: RouterConfig(history_increment=float("inf")),
         "history_increment"),
    ])
    def test_invalid_values_raise(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()
