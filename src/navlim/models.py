"""Measurement and mobility models translated into 2-D information blocks.

Units are fixed throughout: meters for geometry, m^-2 for information
intensities. A ranging link between two nodes contributes a rank-1 block
along the inter-node direction; a velocity measurement contributes a block
expressed in the frame of the step displacement; a Gaussian-random-walk
mobility prior contributes the classic tridiagonal inverse-covariance stripe.
The chunk kernels `spatial_block` and `temporal_block` raise GeometryError
for a whole chunk of trials; the message names the node pair or agent and
step, never the trial.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import blockfim


class GeometryError(ValueError):
    """Scenario geometry cannot support the requested block (e.g. coincident
    nodes leave the measurement direction undefined)."""


def _check_sigmas(sigma_range: float | None, sigma_bias: float) -> None:
    # negated comparisons, so that NaN fails them
    if sigma_range is not None and not sigma_range > 0:
        raise ValueError("sigma_range must be positive")
    if not sigma_bias >= 0:
        raise ValueError("sigma_bias must be >= 0")


def range_intensity_from_sigmas(sigma_range: float, sigma_bias: float = 0.0) -> float:
    """Effective ranging intensity of a Gaussian range measurement with an
    additive Gaussian bias prior: 1 / (sigma_range^2 + sigma_bias^2)."""
    _check_sigmas(sigma_range, sigma_bias)
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
    _check_sigmas(sigma_range, sigma_bias)
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
    intensity per (agent, peer, step), keyed with agent < peer. Intensities
    must be finite and >= 0.
    """

    intensity: float | None = None
    sigma_range: float | None = None
    sigma_bias: float = 0.0
    table: Mapping[tuple[int, int, int], float] | None = None

    def __post_init__(self):
        if (self.intensity is None) == (self.sigma_range is None):
            raise ValueError("give exactly one of intensity or sigma_range")
        if self.intensity is not None and not 0 <= self.intensity < math.inf:
            raise ValueError("intensity must be finite and >= 0")
        _check_sigmas(self.sigma_range, self.sigma_bias)
        if self.table and not all(0 <= v < math.inf for v in self.table.values()):
            raise ValueError("table intensities must be finite and >= 0")
        for key in self.table or ():
            if key[0] >= key[1]:
                raise ValueError(f"table key {key} must have agent < peer")

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
    must be finite and PSD, which makes every emitted block PSD. `table`
    overrides per (agent, step).
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


def _check_intensity_triple(along: float, across: float, couple: float, error=ValueError) -> None:
    if not all(map(math.isfinite, (along, across, couple))):
        raise error("velocity intensities must be finite")
    if along < 0 or across < 0 or along * across - couple**2 < -1e-12 * along * across:
        raise error(
            "velocity intensities [[along, couple], [couple, across]] must be PSD"
        )


@dataclass(frozen=True)
class MobilityModel:
    """Gaussian random walk over positions with 2x2 step covariance (m^2).

    `step_cov` is symmetrized and must be positive definite. `initial_prior`,
    when given, is a finite 2x2 information block added to every agent at
    the first step; the default walk alone carries no absolute reference
    and is rank-deficient by the common-translation directions.
    """

    step_cov: np.ndarray
    initial_prior: np.ndarray | None = None

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.step_cov, dtype=float))
        if cov.shape == (1, 1):
            cov = float(cov[0, 0]) * np.eye(2)
        if cov.shape != (2, 2):
            raise ValueError("step_cov must be scalar or 2x2")
        cov = 0.5 * (cov + cov.T)
        if not np.isfinite(cov).all():
            raise ValueError("non-finite step_cov")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("singular or indefinite step covariance")
        object.__setattr__(self, "step_cov", cov)
        if self.initial_prior is not None:
            prior = np.asarray(self.initial_prior, dtype=float)
            if prior.shape != (2, 2) or not np.isfinite(prior).all():
                raise ValueError("initial_prior must be a finite 2x2 block")
            object.__setattr__(self, "initial_prior", prior)


def random_walks(
    rng: np.random.Generator, area, num_agents: int, num_steps: int, step_factor
) -> np.ndarray:
    """Agent paths (num_agents, num_steps, 2) of a Gaussian random walk:
    starts uniform in the area (width, height) in meters, then steps of 2x2
    covariance L L^T (m^2) for the lower Cholesky factor L = `step_factor`,
    drawn from `rng` in that order."""
    starts = rng.uniform((0.0, 0.0), tuple(area), size=(num_agents, 2))
    steps = rng.standard_normal((num_agents, num_steps - 1, 2)) @ np.asarray(step_factor).T
    return np.concatenate(
        [starts[:, None, :], starts[:, None, :] + np.cumsum(steps, axis=1)], axis=1
    )


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


def within_radius(paths: np.ndarray, num_agents: int, radius: float) -> np.ndarray:
    """Whether agent a and node p != a are within the ranging radius, per
    trial and step: shape (trials, T, agents, nodes) for paths (trials,
    nodes, T, 2), symmetric between agents. A pair's distance is the
    `_agent_offsets` length that `spatial_block` builds its block from."""
    inside = _agent_offsets(paths, num_agents)[2] <= radius
    inside[:, :, np.arange(num_agents), np.arange(num_agents)] = False
    return inside


def _length(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx^2 + dy^2), every offset's and step's length; one whose square
    overflows is taken in units of 2^512, so its bits too scale exactly."""
    with np.errstate(over="ignore"):
        dist = np.sqrt(dx * dx + dy * dy)
        huge = np.isinf(dist)
        x, y = dx[huge] * 2.0**-512, dy[huge] * 2.0**-512
        dist[huge] = np.sqrt(x * x + y * y) * 2.0**512
    return dist


def _agent_offsets(paths: np.ndarray, num_agents: int, first: int = 0, stop: int | None = None):
    """Offsets (dx, dy) from every agent to every node at steps first..stop-1
    and their `_length`s, each of shape (trials, steps, agents, nodes)."""
    x, y = np.moveaxis(paths[:, :, first:stop], -1, 0).swapaxes(2, 3)
    dx = x[:, :, None, :] - x[:, :, :num_agents, None]
    dy = y[:, :, None, :] - y[:, :, :num_agents, None]
    return dx, dy, _length(dx, dy)


@dataclass(frozen=True)
class Scenario:
    """A concrete navigation scenario: geometry, measurement graph, models.

    `pairs[n]` lists the ranging pairs measured at step n as (k, j) with
    k < j and k an agent. `priors` adds explicit 2x2 information blocks at
    (agent, step) coordinates, e.g. to pin a node: they are the one way in
    for single-step information about one position (intra-node
    measurements included), and must be finite.

    Construction, and `dataclasses.replace`, check the listing and resolve
    it and the models into read-only kernel inputs: the `spatial_block`
    weights (T, Na, nodes), a pair listed twice counting twice, and the
    `temporal_block` coeffs (T-1, Na, 3) of the transitions into steps
    1..T-1, zero without a velocity model. `simkit.build_scenario` hands
    over inputs it resolved from its measured mask instead (`_resolved`),
    and `pairs` is listed from that mask when first read.
    """

    geometry: ScenarioGeometry
    pairs: tuple[tuple[tuple[int, int], ...], ...]
    range_model: RangeModel | None = None
    velocity_model: VelocityModel | None = None
    mobility: MobilityModel | None = None
    priors: tuple[tuple[int, int, np.ndarray], ...] = ()
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        na, nodes, t = self.geometry.num_agents, self.geometry.num_nodes, self.geometry.num_steps
        if len(self.pairs) != t:
            raise ValueError("pairs must list every step")
        k, j, n = _pair_index(self.pairs)
        bad = ~((0 <= k) & (k < j) & (j < nodes))
        no_agent = k >= na
        first = np.flatnonzero(bad | no_agent)
        if first.size:
            i = first[0]
            if bad[i]:
                raise ValueError(f"bad pair ({k[i]}, {j[i]}) at step {n[i]}")
            raise ValueError(f"pair ({k[i]}, {j[i]}) has no agent side")
        for agent, step, block in self.priors:
            if not (0 <= agent < na):
                raise ValueError(f"prior on unknown agent {agent}")
            if not (0 <= step < t):
                raise ValueError(f"prior at unknown step {step}")
            block = np.asarray(block)
            if block.shape != (2, 2):
                raise ValueError("prior blocks must be 2x2")
            if not np.isfinite(block).all():
                raise ValueError(f"non-finite prior on agent {agent} at step {step}")
        weights = np.zeros(t * na * nodes)
        if self.range_model is not None:
            lam = self.range_model.intensity_at(k, j, n)
            peer = j < na
            cells = np.ravel_multi_index(
                (
                    np.concatenate([n, n[peer]]),
                    np.concatenate([k, j[peer]]),
                    np.concatenate([j, k[peer]]),
                ),
                (t, na, nodes),
            )
            weights = np.bincount(cells, np.concatenate([lam, lam[peer]]), t * na * nodes)
            weights = weights.astype(float, copy=False)  # int64 when no pair is listed
        coeffs = np.zeros((max(t - 1, 0), na, 3))
        if self.velocity_model is not None:
            coeffs = self.velocity_model.coeffs_at(np.arange(na), np.arange(1, t)[:, None])
        for name, array in (("weights", weights.reshape(t, na, nodes)), ("coeffs", coeffs)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def _resolved(
        cls, measured: np.ndarray, weights: np.ndarray, coeffs: np.ndarray, **fields
    ) -> "Scenario":
        """The scenario of the init `fields` but `pairs`, whose read-only
        kernel inputs are given: they must be what construction resolves
        from the pairs (k, j), k < j, that `measured` (T, Na, nodes) marks
        at each step. `pairs` lists those in row-major order when first
        read."""
        s = object.__new__(cls)
        s.__dict__.update(priors=(), **fields, weights=weights, coeffs=coeffs, _measured=measured)
        return s

    def __getattr__(self, name):
        """`pairs` of a `_resolved` scenario, listed from its mask on first read."""
        measured = self.__dict__.get("_measured")
        if name != "pairs" or measured is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        na, nodes = measured.shape[1:]
        k, j = np.nonzero(np.arange(nodes) > np.arange(na)[:, None])
        listing = list(zip(k.tolist(), j.tolist()))
        pairs = tuple(tuple(compress(listing, row)) for row in measured[:, k, j].tolist())
        self.__dict__["pairs"] = pairs
        return pairs


def _pair_index(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, j, n) index arrays of a per-step pair listing, in listing order."""
    per_step = []
    for step_pairs in pairs:
        arr = np.array(step_pairs, dtype=int)
        if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
            raise ValueError("pairs must be (k, j) index tuples")
        per_step.append(arr.reshape(-1, 2))
    flat = np.concatenate(per_step) if per_step else np.zeros((0, 2), dtype=int)
    steps = np.repeat(np.arange(len(per_step)), [len(a) for a in per_step])
    return flat[:, 0], flat[:, 1], steps


def spatial_block(paths: np.ndarray, weights: np.ndarray, first: int = 0) -> np.ndarray:
    """Ranging information blocks w * u u^T from every agent to every node,
    for a chunk of trials.

    `paths` (trials, nodes, T, 2) holds node positions, agents first;
    `weights` (trials, steps, agents, nodes) the ranging intensities of
    steps first..first+steps-1, zero where a pair is not measured. Block
    [c, n, a, p], of shape (2, 2), has u the unit vector from agent a to
    node p at step first+n; given equal weights, the blocks of (a, p) and
    (p, a) are equal bitwise. A measured pair at zero distance raises
    GeometryError naming the first such pair (k, j), k < j, of the first
    trial that has one, in step order, then pair order; the message does
    not name the trial.
    """
    na = weights.shape[-2]
    dx, dy, dist = _agent_offsets(paths, na, first, first + weights.shape[1])
    upper = np.arange(paths.shape[1]) > np.arange(na)[:, None]
    coincide = (weights != 0.0) & (dist == 0.0) & upper
    if coincide.any():
        at = np.argwhere(coincide)[0]
        raise GeometryError(
            "undefined direction: nodes {} and {} coincide at step {}".format(
                at[2], at[3], first + at[1]
            )
        )
    scale = np.where(dist > 0.0, dist, 1.0)
    dx /= scale
    dy /= scale
    # filled one component at a time, each a contiguous array
    blocks = np.empty((2, 2, *weights.shape))
    np.multiply(dx * dx, weights, out=blocks[0, 0])
    np.multiply(dx * dy, weights, out=blocks[0, 1])
    blocks[1, 0] = blocks[0, 1]
    np.multiply(dy * dy, weights, out=blocks[1, 1])
    return np.moveaxis(blocks, (0, 1), (-2, -1))


def temporal_block(paths: np.ndarray, coeffs: np.ndarray, first: int = 1) -> np.ndarray:
    """Velocity information blocks of every agent for the transitions into
    steps first..first+steps-1 (first >= 1), in world coordinates, for a
    chunk of trials.

    `paths` (trials, nodes, T, 2) holds node positions, agents first;
    `coeffs` (trials, steps, agents, 3) the (along, across, couple)
    intensities of each transition. The result has shape (trials, steps,
    agents, 2, 2). The triple lives in the frame of the step displacement
    (c, s): the block is R L R^T, symmetrized, with R = [[c, -s], [s, c]]
    and L = [[along, couple], [couple, across]], in elementwise arithmetic
    that does not depend on the chunk's shape. Isotropic intensities (along
    == across, couple == 0) give exactly along * I, so a zero displacement
    is acceptable only there; elsewhere it raises GeometryError naming the
    agent and step of the first trial that has one, but not the trial.
    """
    if first < 1:
        raise ValueError("step displacement needs n >= 1")
    along, across, couple = np.moveaxis(coeffs, -1, 0)
    out = along[..., None, None] * np.eye(2)
    turn = (couple != 0.0) | (along != across)
    if turn.any():
        na, steps = coeffs.shape[-2], coeffs.shape[1]
        agent_paths = paths[:, :na, first - 1 : first + steps].swapaxes(1, 2)
        disp = (agent_paths[:, 1:] - agent_paths[:, :-1])[turn]
        dist = _length(disp[:, 0], disp[:, 1])
        still = dist == 0.0
        if still.any():
            _, n, k = np.argwhere(turn)[np.argmax(still)]
            raise GeometryError(
                "zero displacement with direction-dependent intensities "
                f"(agent {k}, step {first + n})"
            )
        c, s = disp[:, 0] / dist, disp[:, 1] / dist
        a, b, x = along[turn], across[turn], couple[turn]
        # R L entry by entry, then (R L) R^T
        r00, r01 = c * a - s * x, c * x - s * b
        r10, r11 = s * a + c * x, s * x + c * b
        b00, b11 = r00 * c - r01 * s, r10 * s + r11 * c
        off = 0.5 * ((r00 * s + r01 * c) + (r10 * c - r11 * s))
        out[turn] = np.stack([np.stack([b00, off], -1), np.stack([off, b11], -1)], -2)
    return out

