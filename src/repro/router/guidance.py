"""Non-uniform routing guidance: per-pin-access-point 1x3 cost vectors.

This is the paper's central data structure (Problem 2): each pin access
point ``i`` carries a cost vector ``C_i`` of size 1x3, where ``C_i[d]`` is
the inferred routing cost along direction ``d`` (0 = x/horizontal,
1 = y/vertical, 2 = z/layer).  Lower cost encourages the router to extend
wires from that access point along that direction (Figure 1(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Number of guidance directions (x, y, z).
NUM_DIRECTIONS = 3

#: Default guidance value: neutral (no preference).
NEUTRAL_COST = 1.0


@dataclass(frozen=True)
class AccessPoint:
    """A pin access point: intersection of pin geometry and routing grid.

    Attributes:
        net: owning net name.
        device: owning device name.
        pin: pin name on the device.
        cell: grid cell (ix, iy, layer).
        position: physical center (x, y) in micrometers.
    """

    net: str
    device: str
    pin: str
    cell: tuple[int, int, int]
    position: tuple[float, float]

    @property
    def key(self) -> tuple[str, str]:
        """Stable identity of the underlying pin."""
        return (self.device, self.pin)


@dataclass
class RoutingGuidance:
    """Guidance vectors ``C`` for a set of access points.

    Attributes:
        vectors: mapping from AccessPoint.key -> length-3 numpy array.
        c_max: upper bound of the feasible guidance region (Eq. 8).
    """

    vectors: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    c_max: float = 4.0

    def __post_init__(self) -> None:
        for key, vec in list(self.vectors.items()):
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (NUM_DIRECTIONS,):
                raise ValueError(
                    f"guidance vector for {key} has shape {arr.shape}, want (3,)"
                )
            self.vectors[key] = arr

    def get(self, key: tuple[str, str]) -> np.ndarray:
        """Guidance for a pin, neutral if unset."""
        vec = self.vectors.get(key)
        if vec is None:
            return np.full(NUM_DIRECTIONS, NEUTRAL_COST)
        return vec

    def set(self, key: tuple[str, str], vec: np.ndarray) -> None:
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (NUM_DIRECTIONS,):
            raise ValueError(f"guidance vector must have shape (3,), got {arr.shape}")
        self.vectors[key] = arr

    def net_vector(self, access_points: list[AccessPoint]) -> np.ndarray:
        """Aggregate guidance over a net's access points (mean).

        The model predicts per-AP vectors; the router applies a
        per-connection blend of source/target AP vectors, and falls back to
        this per-net mean for Steiner extensions.
        """
        if not access_points:
            return np.full(NUM_DIRECTIONS, NEUTRAL_COST)
        stacked = np.stack([self.get(ap.key) for ap in access_points])
        return stacked.mean(axis=0)

    def as_array(self, keys: list[tuple[str, str]]) -> np.ndarray:
        """Stack guidance vectors for ``keys`` into an (n, 3) array."""
        return np.stack([self.get(k) for k in keys]) if keys else np.zeros((0, 3))

    def clip_to_feasible(self, margin: float = 1e-3) -> None:
        """Clamp all vectors into the open feasible region (0, c_max)."""
        for key in self.vectors:
            self.vectors[key] = np.clip(self.vectors[key], margin, self.c_max - margin)

    def copy(self) -> "RoutingGuidance":
        return RoutingGuidance(
            vectors={k: v.copy() for k, v in self.vectors.items()}, c_max=self.c_max
        )


def uniform_guidance(
    keys: list[tuple[str, str]] | None = None, value: float = NEUTRAL_COST,
    c_max: float = 4.0,
) -> RoutingGuidance:
    """Guidance with the same cost in every direction for every pin."""
    vectors = {}
    if keys:
        for key in keys:
            vectors[key] = np.full(NUM_DIRECTIONS, float(value))
    return RoutingGuidance(vectors=vectors, c_max=c_max)


def random_guidance(
    keys: list[tuple[str, str]],
    rng: np.random.Generator,
    c_max: float = 4.0,
    low: float = 0.2,
    high: float | None = None,
) -> RoutingGuidance:
    """Sample guidance uniformly in the feasible region (dataset generation)."""
    hi = c_max - 0.2 if high is None else high
    vectors = {key: rng.uniform(low, hi, size=NUM_DIRECTIONS) for key in keys}
    return RoutingGuidance(vectors=vectors, c_max=c_max)
