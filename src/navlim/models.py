"""Measurement and mobility models translated into 2-D information blocks.

Units are fixed throughout: meters for geometry, m^-2 for information
intensities. A ranging link between two nodes contributes a rank-1 block
along the inter-node direction; a velocity measurement contributes a block
expressed in the frame of the step displacement; a Gaussian-random-walk
mobility prior contributes the classic tridiagonal inverse-covariance stripe.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import blockfim

# Displacements below this (meters) count as zero: the step direction is
# undefined there.
ZERO_DISPLACEMENT = 1e-12

# Relative distance from the radius below which `radius_pairs` re-checks a
# pair with the per-pair norm (row norms agree with it to about 1e-16).
_RADIUS_TIE = 1e-12


class GeometryError(ValueError):
    """Scenario geometry cannot support the requested block (e.g. coincident
    nodes leave the measurement direction undefined)."""


def range_intensity_from_sigmas(sigma_range: float, sigma_bias: float = 0.0) -> float:
    """Effective ranging intensity of a Gaussian range measurement with an
    additive Gaussian bias prior: 1 / (sigma_range^2 + sigma_bias^2)."""
    if sigma_range <= 0:
        raise ValueError("sigma_range must be positive")
    if sigma_bias < 0:
        raise ValueError("sigma_bias must be >= 0")
    if math.isinf(sigma_bias):
        return 0.0
    return 1.0 / (sigma_range**2 + sigma_bias**2)


def range_intensity_via_reduction(sigma_range: float, sigma_bias: float = 0.0) -> float:
    """Same intensity obtained by eliminating the bias from the joint
    (distance, bias) information matrix of the prior-augmented likelihood.

    Kept alongside the closed form as the structural route: the likelihood
    contributes info * [[1, 1], [1, 1]] over (distance, bias), the prior adds
    1/sigma_bias^2 on the bias, and the bias is then reduced out.
    """
    if sigma_range <= 0:
        raise ValueError("sigma_range must be positive")
    if sigma_bias < 0:
        raise ValueError("sigma_bias must be >= 0")
    info = 1.0 / sigma_range**2
    if sigma_bias == 0.0:
        # Perfectly known bias: nothing to eliminate.
        return info
    prior = 0.0 if math.isinf(sigma_bias) else 1.0 / sigma_bias**2
    # intensities are nonnegative; round-off below zero is noise
    return max(0.0, blockfim.eliminate_block(info, info, info + prior))


def velocity_intensities(local_info: np.ndarray, step_distance: float) -> tuple[float, float, float]:
    """Convert a (distance, heading) information matrix of one velocity
    measurement into (along, across, couple) intensities.

    `local_info` is the 2x2 information over the step's polar coordinates
    (length, direction angle); dividing the angular rows/columns by the step
    length maps them onto the cross-track axis.
    """
    if step_distance <= 0:
        raise GeometryError("step distance must be positive")
    k = np.asarray(local_info, dtype=float)
    along = float(k[0, 0])
    couple = float(k[0, 1]) / step_distance
    across = float(k[1, 1]) / step_distance**2
    return along, across, couple


@dataclass(frozen=True)
class RangeModel:
    """Ranging information intensity, direct or derived from noise levels.

    Exactly one of `intensity` (m^-2) or `sigma_range` (m, with optional
    additive-bias prior std `sigma_bias`) must be given. `table` overrides the
    intensity per (agent, peer, step), keyed with agent < peer.
    """

    intensity: float | None = None
    sigma_range: float | None = None
    sigma_bias: float = 0.0
    table: Mapping[tuple[int, int, int], float] | None = None

    def __post_init__(self):
        if (self.intensity is None) == (self.sigma_range is None):
            raise ValueError("give exactly one of intensity or sigma_range")
        if self.intensity is not None and self.intensity < 0:
            raise ValueError("intensity must be >= 0")
        if self.sigma_range is not None and self.sigma_range <= 0:
            raise ValueError("sigma_range must be positive")
        if self.sigma_bias < 0:
            raise ValueError("sigma_bias must be >= 0")

    def base_intensity(self) -> float:
        if self.intensity is not None:
            return self.intensity
        return range_intensity_from_sigmas(self.sigma_range, self.sigma_bias)

    def intensity_at(self, k, j, n) -> np.ndarray:
        """Intensities of pairs (k, j) at steps n; the indices broadcast."""
        k, j, n = np.broadcast_arrays(k, j, n)
        out = np.full(k.shape, self.base_intensity(), dtype=float)
        if self.table:
            lo, hi = np.minimum(k, j), np.maximum(k, j)
            for idx, key in enumerate(zip(lo.flat, hi.flat, n.flat)):
                value = self.table.get(tuple(map(int, key)))
                if value is not None:
                    out.flat[idx] = value
        return out


@dataclass(frozen=True)
class VelocityModel:
    """Velocity-measurement intensities in the step-displacement frame.

    `along` acts on the direction of motion, `across` on its orthogonal,
    `couple` ties the two. The 2x2 matrix [[along, couple], [couple, across]]
    must be PSD, which makes every emitted block PSD. `table` overrides per
    (agent, step).
    """

    along: float
    across: float
    couple: float = 0.0
    table: Mapping[tuple[int, int], tuple[float, float, float]] | None = None

    def __post_init__(self):
        _check_intensity_triple(self.along, self.across, self.couple)
        if self.table is not None:
            for along, across, couple in self.table.values():
                _check_intensity_triple(along, across, couple)

    def coeffs_at(self, k, n) -> np.ndarray:
        """(along, across, couple) of agents k at steps n, stacked on a last
        axis of length 3; the indices broadcast."""
        k, n = np.broadcast_arrays(k, n)
        out = np.empty((*k.shape, 3))
        out[...] = (self.along, self.across, self.couple)
        if self.table:
            for idx, key in enumerate(zip(k.flat, n.flat)):
                value = self.table.get(tuple(map(int, key)))
                if value is not None:
                    out.reshape(-1, 3)[idx] = value
        return out


def _check_intensity_triple(along: float, across: float, couple: float) -> None:
    if along < 0 or across < 0 or along * across - couple**2 < -1e-12 * max(
        1.0, along * across
    ):
        raise ValueError(
            "velocity intensities [[along, couple], [couple, across]] must be PSD"
        )


@dataclass(frozen=True)
class MobilityModel:
    """Gaussian random walk over positions with 2x2 step covariance (m^2).

    `initial_prior`, when given, is a PD information block added at the first
    step; the default walk alone carries no absolute reference and is
    rank-deficient by the common-translation directions.
    """

    step_cov: np.ndarray
    initial_prior: np.ndarray | None = None

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.step_cov, dtype=float))
        if cov.shape == (1, 1):
            cov = float(cov[0, 0]) * np.eye(2)
        if cov.shape != (2, 2):
            raise ValueError("step_cov must be scalar or 2x2")
        object.__setattr__(self, "step_cov", 0.5 * (cov + cov.T))


@dataclass(frozen=True)
class ScenarioGeometry:
    """Node positions per time step: agents first, then anchors.

    `paths` has shape (num_nodes, num_steps, 2); anchor rows simply repeat
    their fixed position when the anchor does not move.
    """

    paths: np.ndarray
    num_agents: int

    def __post_init__(self):
        paths = np.asarray(self.paths, dtype=float)
        if paths.ndim != 3 or paths.shape[2] != 2:
            raise ValueError("paths must have shape (nodes, steps, 2)")
        if not np.isfinite(paths).all():
            raise ValueError("non-finite position")
        if not 0 <= self.num_agents <= paths.shape[0]:
            raise ValueError("num_agents out of range")
        object.__setattr__(self, "paths", paths)

    @property
    def num_nodes(self) -> int:
        return self.paths.shape[0]

    @property
    def num_anchors(self) -> int:
        return self.num_nodes - self.num_agents

    @property
    def num_steps(self) -> int:
        return self.paths.shape[1]

    def position(self, k: int, n: int) -> np.ndarray:
        return self.paths[k, n]

    def pair_vector(self, k: int, j: int, n: int) -> np.ndarray:
        return self.paths[j, n] - self.paths[k, n]

    def pair_distance(self, k: int, j: int, n: int) -> float:
        return float(np.linalg.norm(self.pair_vector(k, j, n)))

    def pair_angle(self, k: int, j: int, n: int) -> float:
        v = self.pair_vector(k, j, n)
        if np.linalg.norm(v) <= ZERO_DISPLACEMENT:
            raise GeometryError(f"undefined direction: nodes {k} and {j} coincide at step {n}")
        return float(math.atan2(v[1], v[0]))

    def step_vector(self, k: int, n: int) -> np.ndarray:
        """Displacement of node k from step n-1 to step n (n >= 1)."""
        if n < 1:
            raise ValueError("step displacement needs n >= 1")
        return self.paths[k, n] - self.paths[k, n - 1]

    def step_distance(self, k: int, n: int) -> float:
        return float(np.linalg.norm(self.step_vector(k, n)))

    def step_angle(self, k: int, n: int) -> float:
        v = self.step_vector(k, n)
        if np.linalg.norm(v) <= ZERO_DISPLACEMENT:
            raise GeometryError(f"undefined direction: agent {k} did not move into step {n}")
        return float(math.atan2(v[1], v[0]))


def full_pairs(geometry: ScenarioGeometry) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All measured pairs per step: every agent-agent and agent-anchor pair."""
    pairs = []
    for k in range(geometry.num_agents):
        for j in range(k + 1, geometry.num_nodes):
            pairs.append((k, j))
    ordered = tuple(pairs)
    return tuple(ordered for _ in range(geometry.num_steps))


def radius_pairs(geometry: ScenarioGeometry, radius: float) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Pairs within the ranging radius, evaluated per step."""
    k, j = np.triu_indices(geometry.num_nodes, 1)
    k, j = k[k < geometry.num_agents], j[k < geometry.num_agents]
    dist = np.linalg.norm(geometry.paths[j] - geometry.paths[k], axis=-1)
    # The row norm may differ from the per-pair `pair_distance` in the last
    # bit; pairs that close to the radius are decided by `pair_distance`.
    near = np.abs(dist - radius) <= _RADIUS_TIE * radius
    inside = dist <= radius
    for p, n in zip(*np.nonzero(near)):
        inside[p, n] = geometry.pair_distance(k[p], j[p], n) <= radius
    pairs = list(zip(k.tolist(), j.tolist()))
    return tuple(tuple(compress(pairs, column)) for column in inside.T.tolist())


@dataclass(frozen=True)
class Scenario:
    """A concrete navigation scenario: geometry, measurement graph, models.

    `pairs[n]` lists the ranging pairs measured at step n as (k, j) with
    k < j and k an agent. `priors` adds explicit 2x2 information blocks at
    (agent, step) coordinates, e.g. to pin a node.
    """

    geometry: ScenarioGeometry
    pairs: tuple[tuple[tuple[int, int], ...], ...]
    range_model: RangeModel | None = None
    velocity_model: VelocityModel | None = None
    mobility: MobilityModel | None = None
    priors: tuple[tuple[int, int, np.ndarray], ...] = ()

    def __post_init__(self):
        if len(self.pairs) != self.geometry.num_steps:
            raise ValueError("pairs must list every step")
        k, j, n = index = _pair_index(self.pairs)
        object.__setattr__(self, "_pair_index", index)
        bad = ~((0 <= k) & (k < j) & (j < self.geometry.num_nodes))
        no_agent = k >= self.geometry.num_agents
        first = np.flatnonzero(bad | no_agent)
        if first.size:
            i = first[0]
            if bad[i]:
                raise ValueError(f"bad pair ({k[i]}, {j[i]}) at step {n[i]}")
            raise ValueError(f"pair ({k[i]}, {j[i]}) has no agent side")
        for k, n, block in self.priors:
            if not (0 <= k < self.geometry.num_agents):
                raise ValueError(f"prior on unknown agent {k}")
            if not (0 <= n < self.geometry.num_steps):
                raise ValueError(f"prior at unknown step {n}")
            if np.asarray(block).shape != (2, 2):
                raise ValueError("prior blocks must be 2x2")

    def pair_index(self, first: int, stop: int):
        """(k, j, n) index arrays of the pairs measured at steps
        first..stop-1, in `pairs` order."""
        k, j, n = self._pair_index
        window = (first <= n) & (n < stop)
        return k[window], j[window], n[window]


def _pair_index(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, j, n) index arrays of a per-step pair listing, in listing order.
    Steps sharing one listing object (as `full_pairs` builds them) convert
    it once."""
    converted: dict[int, np.ndarray] = {}
    for step_pairs in pairs:
        if id(step_pairs) not in converted:
            arr = np.array(step_pairs, dtype=int)
            if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
                raise ValueError("pairs must be (k, j) index tuples")
            converted[id(step_pairs)] = arr.reshape(-1, 2)
    per_step = [converted[id(step_pairs)] for step_pairs in pairs]
    flat = np.concatenate(per_step) if per_step else np.zeros((0, 2), dtype=int)
    steps = np.repeat(np.arange(len(per_step)), [len(a) for a in per_step])
    return flat[:, 0], flat[:, 1], steps


def spatial_block(
    geometry: ScenarioGeometry, k, j, n, model: RangeModel
) -> np.ndarray:
    """Rank-1 ranging information blocks lam * u u^T of pairs (k, j) at steps
    n, u the unit vector from node k to node j.

    The indices broadcast; the result has shape (..., 2, 2). A zero
    intensity gives a zero block whatever the geometry.
    """
    k, j, n = np.broadcast_arrays(k, j, n)
    lam = model.intensity_at(k, j, n)
    diff = geometry.paths[j, n] - geometry.paths[k, n]
    dist = np.linalg.norm(diff, axis=-1)
    coincide = (lam != 0.0) & (dist <= ZERO_DISPLACEMENT)
    if coincide.any():
        at = tuple(a[coincide].flat[0] for a in (k, j, n))
        raise GeometryError(
            "undefined direction: nodes {} and {} coincide at step {}".format(*at)
        )
    u = diff / np.where(dist > 0.0, dist, 1.0)[..., None]
    return lam[..., None, None] * (u[..., :, None] * u[..., None, :])


def temporal_block(
    geometry: ScenarioGeometry, k, n, model: VelocityModel
) -> np.ndarray:
    """Velocity information blocks of agents k for the steps into n (n >= 1),
    expressed in world coordinates.

    The indices broadcast; the result has shape (..., 2, 2). The intensity
    triple lives in the frame of the step displacement (c, s): the block is
    R L R^T with R = [[c, -s], [s, c]] and L = [[along, couple], [couple,
    across]]. Isotropic intensities (along == across, couple == 0) give
    exactly along * I, so a zero displacement is acceptable only there.
    """
    k, n = np.broadcast_arrays(k, n)
    if (n < 1).any():
        raise ValueError("step displacement needs n >= 1")
    coeffs = model.coeffs_at(k, n)
    along, across, couple = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    out = along[..., None, None] * np.eye(2)
    turn = (couple != 0.0) | (along != across)
    if turn.any():
        disp = geometry.paths[k[turn], n[turn]] - geometry.paths[k[turn], n[turn] - 1]
        dist = np.linalg.norm(disp, axis=-1)
        still = dist <= ZERO_DISPLACEMENT
        if still.any():
            raise GeometryError(
                "zero displacement with direction-dependent intensities "
                f"(agent {k[turn][still][0]}, step {n[turn][still][0]})"
            )
        c, s = disp[:, 0] / dist, disp[:, 1] / dist
        rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
        lc = coeffs[turn]
        local = np.stack([lc[:, [0, 2]], lc[:, [2, 1]]], axis=1)
        blocks = np.einsum("mij,mjk,mlk->mil", rot, local, rot)
        out[turn] = 0.5 * (blocks + blocks.transpose(0, 2, 1))
    return out


def mobility_blocks(
    model: MobilityModel, num_steps: int
) -> list[tuple[int, int, np.ndarray]]:
    """Single-agent information contributions of the random-walk prior.

    Each transition n -> n+1 adds inv(step_cov) to both adjacent diagonal
    blocks and -inv(step_cov) between them; the optional initial prior lands
    on step 0. Returned as (step_i, step_j, block) with step_i <= step_j.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    w = np.linalg.eigvalsh(model.step_cov)
    if w.min() <= 0:
        raise ValueError("singular step covariance")
    info = np.linalg.inv(model.step_cov)
    out: list[tuple[int, int, np.ndarray]] = []
    if model.initial_prior is not None:
        out.append((0, 0, np.asarray(model.initial_prior, dtype=float)))
    for n in range(num_steps - 1):
        out.append((n, n, info.copy()))
        out.append((n + 1, n + 1, info.copy()))
        out.append((n, n + 1, -info))
    return out
