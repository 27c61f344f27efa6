"""Joint position-information assembly, carry-over recursion, and the
geometric decompositions of 2-D carry-over information.

The central object is the joint EFIM over agent positions across time steps,
a symmetric matrix of 2x2 blocks indexed by (agent, step). Ranging links
contribute within a time step; velocity measurements couple consecutive
steps, making the joint matrix block-tridiagonal in time. Marginalizing past
steps compresses their entire contribution into a per-step carry-over block,
which the recursion propagates forward without ever touching the full
matrix.
"""

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockfim import (
    _chain_reduction,
    _reduce,
    _scaled_eigh,
    ChainBlocks,
    block_diag,
    eliminate_block,
)
from .geom2d import Eigen2, eigen2, r_cross, r_dir, unit_vector
from .models import (
    MobilityModel,
    Scenario,
    spatial_block,
    temporal_block,
)

# Joint-EFIM eigenvalues below 4 * dim * eps * lambda_max count as null
# directions (positions touching them have an infinite bound). The cutoff
# tracks eigh's backward-error scale rather than a fixed relative factor:
# assembled null spaces land near 1e-15 absolute even at dim ~500, while a
# deliberate 1e12 pinning prior must not swallow ordinary m^-2 eigenvalues.
_SPEB_NULL_FACTOR = 4.0 * np.finfo(float).eps

# Round-off floor of a Schur complement a - b c^-1 b^T, per unit of dimension
# and of a's scale: it is a difference of terms of a's size, so below
# 32 * dim * eps times that scale an uninformed part leaves only round-off,
# which later reads would take as measured information. Carry-over
# eigenvalues at or below 32 * dim * eps * max|K| are exact zeros, as are
# dense marginal entries at or below 32 * dim * eps * sqrt(a_ii * a_jj).
_ROUNDOFF_FLOOR_FACTOR = 32.0 * np.finfo(float).eps

# Smallest eigenvalue, after scaling to unit diagonal, of the time-collapsed
# EFIM sum_{n,m} J_nm (the summed ranging and prior information: velocity
# links cancel in the sum) above which the block-tridiagonal sweep runs.
# Singular sums sit at round-off (~1e-16), where the sweep's Cholesky
# factors can still succeed and return a finite bound for an unobservable
# agent. The dense path's null cutoff grows with the dimension and starts to
# report +inf near 1e-9 at dim 960, so 1e-6 keeps both paths agreeing on
# which bounds are infinite with a wide margin.
_COLLAPSED_MIN_EIG = 1e-6

# Joint EFIMs of at most this dimension stay on the dense path: one eigh is
# no slower than the sweep's per-step calls there (measured crossover 36-48).
_SWEEP_MIN_DIM = 40

# Squared eigenvector mass on a position block below which a null direction
# is considered not to touch that block.
NULL_SUPPORT_TOL = 1e-12


def position_coords(
    num_agents: int, num_steps: int, start_step: int = 0
) -> tuple[tuple[int, int], ...]:
    """(agent, step) coordinates in time-major order."""
    return tuple(
        (k, n) for n in range(start_step, num_steps) for k in range(num_agents)
    )


class JointEfim:
    """Joint EFIM over 2-D positions, one 2x2 block per (agent, step).

    Immutable: the array passed in becomes `matrix` without a copy and is
    made read-only, so a later write to it raises ValueError. An EFIM built
    by `assemble_position_efim` or `independent_params_efim` holds the
    builder's band layout instead (`_layout`: the first step, the diagonal
    blocks and the blocks between consecutive steps, about
    2 * T * (2 * Na)^2 doubles) and lays `matrix` out from it on first
    read; the sweep reads never need it. Its coordinates are every agent
    over consecutive steps in `position_coords` order, so a coordinate's
    block is computed from the layout's first step and shape, and `coords`
    is listed only when read. Only such an EFIM can be read by the
    block-tridiagonal sweep: on first use it caches its domain check with
    its D and B blocks (`_tridiagonal`, about 2 * T * (2 * Na)^2 doubles),
    and its reads keep the forward and backward Schur carries they compute,
    at most 2 * T * (2 * Na)^2 doubles more. An EFIM built from a bare
    matrix looks its coordinates up in a dict (`_pos`), and it and any read
    that takes the dense path keep what one eigendecomposition of the whole
    matrix gives: every block's bound and the null count (`_dense_bounds`,
    Na * T doubles and an integer).
    """

    def __init__(self, coords: tuple[tuple[int, int], ...], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (2 * len(coords), 2 * len(coords)):
            raise ValueError("matrix size does not match coordinate list")
        if len(set(coords)) != len(coords):
            raise ValueError("duplicate coordinate")
        matrix.flags.writeable = False
        self.__dict__.update(coords=coords, matrix=matrix, _layout=None)

    @classmethod
    def _from_layout(cls, start: int, d: np.ndarray, upper: np.ndarray) -> "JointEfim":
        """The EFIM of all agents over steps start..start+len(d)-1 whose
        matrix `_lay_out(d, upper)` gives, not laid out until read."""
        j = object.__new__(cls)
        j.__dict__.update(_layout=(start, d, upper))
        return j

    def __setattr__(self, name, value):
        raise AttributeError("JointEfim is immutable")

    @cached_property
    def coords(self) -> tuple[tuple[int, int], ...]:
        """(agent, step) of each 2x2 block in order; listed from `_layout`
        on first read."""
        start, d, _ = self._layout
        return position_coords(d.shape[-1] // 2, start + len(d), start)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only; laid out from `_layout` on first read."""
        out = _lay_out(*self._layout[1:])
        out.flags.writeable = False
        return out

    @cached_property
    def _pos(self) -> dict[tuple[int, int], int]:
        return {c: i for i, c in enumerate(self.coords)}

    def _index(self, coord) -> int | None:
        """Block number of `coord` in `coords`, None when it is not one of
        them. A layout's coordinates are matched by equality, as the dict
        of a bare matrix's matches them: 1.0 and numpy integers name the
        integer they equal."""
        if self._layout is None:
            return self._pos.get(coord)
        start, d, _ = self._layout
        agents, steps = range(d.shape[-1] // 2), range(start, start + len(d))
        if isinstance(coord, tuple) and len(coord) == 2:
            agent, step = coord
            if agent in agents and step in steps:
                return (int(step) - start) * len(agents) + int(agent)
        return None

    def rows(self, agent: int, step: int) -> slice:
        i = self._index((agent, step))
        if i is None:
            raise ValueError(f"unknown coordinates: {[(agent, step)]}")
        return slice(2 * i, 2 * i + 2)

    @cached_property
    def _tridiagonal(self) -> tuple[int, np.ndarray, np.ndarray, list, list] | None:
        """`_tridiagonal_blocks` of this EFIM, run once for all its reads,
        then its forward and backward Schur carries as far as reads have
        extended them (see `_extend_carries`)."""
        found = _tridiagonal_blocks(self)
        if found is None:
            return None
        zero = np.zeros_like(found[1][0])
        return (*found, [zero], [zero])

    @cached_property
    def _dense_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """`_bounds` of the whole matrix, for the reads the sweep cannot
        serve."""
        return _bounds(self.matrix)


def _spatial_matrices(
    paths: np.ndarray, weights: np.ndarray, first: int = 0, anchors: bool = False
):
    """Network ranging matrices of a chunk of trials, shape (trials, steps,
    2*Na, 2*Na), from the `spatial_block` inputs of steps
    first..first+steps-1; with `anchors`, also the matrices of the
    agent-anchor pairs alone, as a second stack.

    An agent's diagonal block sums the blocks of its peers in the order
    a+1, ..., nodes-1, 0, ..., a-1 (unmeasured peers add exact zeros). For a
    sorted listing without repeats, as `simkit.build_scenario` gives,
    that is the pairs it opens before those it closes, each in listing
    order: the sweep CSVs depend on that order to the last bit. Agent-agent
    blocks enter negated between the two agents, as +0.0 where unmeasured.
    """
    blocks = spatial_block(paths, weights, first)
    na, nodes = blocks.shape[2:4]
    comp = np.moveaxis(blocks, (-2, -1), (0, 1))
    peers = (np.arange(na)[:, None] + np.arange(1, nodes)) % nodes
    full = _network_matrices(comp, peers, offdiag=True)
    if not anchors:
        return full
    anchor_peers = np.broadcast_to(np.arange(na, nodes), (na, nodes - na))
    return full, _network_matrices(comp, anchor_peers)


def _network_matrices(comp: np.ndarray, peers: np.ndarray, offdiag: bool = False) -> np.ndarray:
    """Network matrices (trials, steps, 2*Na, 2*Na) from the blocks of
    `spatial_block` held component first, (2, 2, trials, steps, Na, nodes),
    as `spatial_block` stores them: agent a's diagonal block is +0.0 plus
    the blocks of peers[a], added in that order; with `offdiag`, the negated
    agent-agent blocks fill the rest, else zeros."""
    _, _, trials, steps, na, nodes = comp.shape
    agents = np.arange(na)
    terms = comp[..., agents[:, None], peers]
    diag = np.zeros(terms.shape[:-1])
    for i in range(peers.shape[1]):
        diag += terms[..., i]
    out = np.zeros((trials, steps, 2 * na, 2 * na))
    grid = out.reshape(trials, steps, na, 2, na, 2)
    for r in (0, 1):
        for q in (0, 1):
            if offdiag:
                np.subtract(0.0, comp[r, q, ..., :na], out=grid[:, :, :, r, :, q])
            grid[:, :, agents, r, agents, q] = diag[r, q]
    return out


def _temporal_matrices(paths: np.ndarray, coeffs: np.ndarray, first: int = 1) -> np.ndarray:
    """Block-diagonal network velocity matrices of a chunk of trials, shape
    (trials, steps, 2*Na, 2*Na), from the `temporal_block` inputs of the
    transitions into steps first..first+steps-1."""
    trials, steps, na = coeffs.shape[:3]
    out = np.zeros((trials, steps, 2 * na, 2 * na))
    agents = np.arange(na)
    grid = out.reshape(trials, steps, na, 2, na, 2).swapaxes(3, 4)
    grid[:, :, agents, agents] = temporal_block(paths, coeffs, first)
    return out


def _scenario_spatial(scenario: Scenario, first: int, stop: int) -> np.ndarray:
    """`_spatial_matrices` of one scenario's steps first..stop-1, its
    priors added to their agents' diagonal blocks in order afterwards."""
    weights = scenario.weights[None, first:stop]
    out = _spatial_matrices(scenario.geometry.paths[None], weights, first)[0]
    for k, n, blk in scenario.priors:
        if first <= n < stop:
            out[n - first, 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += blk
    return out


def _mobility_links(mobility: MobilityModel | None, diag: np.ndarray) -> np.ndarray:
    """`_band_layout` links over the steps of `diag` (steps, 2*Na, 2*Na) of
    the random-walk prior: a transition is a relative measurement between an
    agent's consecutive positions with information inv(step_cov), on every
    agent's block; zeros without a prior. The initial prior is added to
    every agent's block of diag[0], in place."""
    steps, size = diag.shape[:2]
    if mobility is None:
        return np.zeros((max(steps - 1, 0), size, size))
    if mobility.initial_prior is not None:
        for row in range(0, size, 2):
            diag[0, row : row + 2, row : row + 2] += mobility.initial_prior
    info = block_diag([np.linalg.inv(mobility.step_cov)] * (size // 2))
    return np.broadcast_to(info, (max(steps - 1, 0), size, size))


def _band_layout(
    diag: np.ndarray, links: np.ndarray, carry: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(d, upper) of the joint matrix over consecutive steps: diag[n] on
    step n's diagonal block, and each links[n], a relative measurement
    between steps n and n+1, added to both steps' diagonals and subtracted
    between them (upper[n]); `carry` is added to the first diagonal
    block."""
    d = diag.copy()
    d[:-1] += links
    d[1:] += links
    if carry is not None:
        d[0] += carry
    return d, -links


def _lay_out(d: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Time-major matrix with d[n] on step n's diagonal block, upper[n]
    between steps n and n+1 and its transpose between n+1 and n, and +0.0
    elsewhere."""
    steps, size = d.shape[0], d.shape[-1]
    out = np.zeros((steps, size, steps, size))
    idx = np.arange(steps)
    out[idx, :, idx, :] = d
    out[idx[:-1], :, idx[1:], :] = upper
    out[idx[1:], :, idx[:-1], :] = upper.transpose(0, 2, 1)
    return out.reshape(steps * size, steps * size)


def assemble_position_efim(
    scenario: Scenario,
    start_step: int = 0,
    carry: np.ndarray | None = None,
) -> JointEfim:
    """Joint position EFIM of the ranging + velocity measurement set.

    Per time step, each measured pair adds its ranging block to both member
    diagonals and its negative between them (anchor sides have no rows and
    contribute to the agent diagonal only). Each velocity measurement couples
    an agent's two consecutive steps with the +/+/- pattern of a relative
    measurement, so cross-information exists only between adjacent steps.

    `start_step` restricts the window to steps start_step..T-1; `carry`
    (2*Na x 2*Na) is added to the window's first diagonal block, which is how
    marginalized history re-enters.

    The EFIM keeps the diagonal and inter-step blocks laid out here and
    lays out its dense matrix only when `matrix` is read: sweep reads use
    the blocks alone.
    """
    geom = scenario.geometry
    na, t = geom.num_agents, geom.num_steps
    if not 0 <= start_step < t:
        raise ValueError("start_step out of range")
    if carry is not None:
        carry = np.asarray(carry, dtype=float)
        if carry.shape != (2 * na, 2 * na):
            raise ValueError("carry block must cover all agents of one step")
    paths, coeffs = scenario.geometry.paths[None], scenario.coeffs[None, start_step:]
    d, upper = _band_layout(
        _scenario_spatial(scenario, start_step, t),
        _temporal_matrices(paths, coeffs, start_step + 1)[0],
        carry,
    )
    return JointEfim._from_layout(start_step, d, upper)


def independent_params_efim(scenario: Scenario) -> JointEfim:
    """Joint position EFIM when measurement parameters are independent across
    time and of the positions.

    Every measurement then contributes only within its own time step: each
    pair ranges with its `scenario.weights` intensity (for a sigma
    `RangeModel`, the pair's (distance, bias) information with the
    prior-augmented bias eliminated, 1 / (sigma_range^2 + sigma_bias^2)), and
    intra-node measurements enter as ready per-(agent, step) 2x2 blocks in
    `scenario.priors`. The mobility prior, when present, keeps its usual
    consecutive-step stripe.

    Velocity measurements spanning two steps do not fit this reduction; use
    `assemble_position_efim` for those.
    """
    if scenario.velocity_model is not None:
        raise ValueError(
            "velocity measurements couple consecutive steps; "
            "this reduction handles single-step measurements only"
        )
    diag = _scenario_spatial(scenario, 0, scenario.geometry.num_steps)
    return JointEfim._from_layout(0, *_band_layout(diag, _mobility_links(scenario.mobility, diag)))


@dataclass(frozen=True, eq=False)
class BayesianEfim:
    """Additive split of the joint EFIM: mobility prior + intra-node
    (temporal) + inter-node (spatial) parts, all over the same coordinates."""

    coords: tuple[tuple[int, int], ...]
    mobility: np.ndarray
    temporal: np.ndarray
    spatial: np.ndarray

    @property
    def total(self) -> JointEfim:
        return JointEfim(self.coords, self.mobility + self.temporal + self.spatial)


def bayesian_efim(
    num_agents: int,
    num_steps: int,
    mobility: MobilityModel | None = None,
    intra_chains: Mapping[int, ChainBlocks] | None = None,
    pair_chains: Mapping[tuple[int, int], ChainBlocks] | None = None,
) -> BayesianEfim:
    """Joint position EFIM with hidden-Markov measurement-parameter chains.

    Each intra-node chain (key: agent) couples that agent's positions across
    all step pairs once its nuisance sequence is eliminated: its reduced
    matrix R adds onto the agent's rows. Each pairwise chain (key: (agent,
    peer)) acts on the difference coordinate of the pair: it adds
    [[R, -R], [-R, R]] over the agent's and the peer's rows, or R alone when
    the peer is an anchor, which has no rows. Chain state slots must be
    2-dimensional (positions).
    """
    coords = position_coords(num_agents, num_steps)
    dim = 2 * len(coords)
    mob = np.zeros((dim, dim))
    temp = np.zeros((dim, dim))
    spat = np.zeros((dim, dim))

    if mobility is not None:
        diag = np.zeros((num_steps, 2 * num_agents, 2 * num_agents))
        # added onto zeros, which turns the -0.0 between unlinked steps into +0.0
        mob += _lay_out(*_band_layout(diag, _mobility_links(mobility, diag)))

    # rows of agent 0's positions in step order; agent k's are 2k further on
    first_agent = (2 * num_agents * np.arange(num_steps)[:, None] + np.arange(2)).ravel()
    for k, chain in (intra_chains or {}).items():
        _check_chain(chain, num_agents, num_steps, k)
        own = first_agent + 2 * k
        temp[np.ix_(own, own)] += _chain_reduction(chain)

    for (k, peer), chain in (pair_chains or {}).items():
        _check_chain(chain, num_agents, num_steps, k)
        if peer == k:
            raise ValueError("pair chain needs two distinct nodes")
        if peer < 0:
            raise ValueError(f"chain references unknown node {peer}")
        reduced = _chain_reduction(chain)
        own = first_agent + 2 * k
        if peer < num_agents:
            own = np.concatenate([own, first_agent + 2 * peer])
            reduced = np.block([[reduced, -reduced], [-reduced, reduced]])
        spat[np.ix_(own, own)] += reduced
    return BayesianEfim(coords, mob, temp, spat)


def _check_chain(chain: ChainBlocks, num_agents: int, num_steps: int, agent: int) -> None:
    if not 0 <= agent < num_agents:
        raise ValueError(f"chain references unknown agent {agent}")
    if chain.length != num_steps:
        raise ValueError("chain length must equal the number of steps")
    if any(chain.state_dim(n) != 2 for n in range(chain.length)):
        raise ValueError("chain state slots must be 2-D positions")


def marginal_efim(j: JointEfim, keep: Iterable[tuple[int, int]]) -> JointEfim:
    """Reduce the joint EFIM onto a subset of (agent, step) coordinates,
    preserving their inverse-information block.

    When `keep` is every agent over a contiguous step window and `j` is a
    builder's EFIM in the block-tridiagonal domain (see
    `_tridiagonal_blocks`), the steps outside the window are eliminated by
    forward and backward Schur sweeps in O(T * Na^3), which extend the
    carries earlier reads of `j` left; the window's interior blocks are
    copied unchanged. Every other input, a bare matrix included, eliminates
    the dropped coordinates in one dense reduction, O((Na * T)^3) (see
    `_dense_marginal_efim`). The result holds a bare matrix, so its own
    reads are dense.
    """
    keep_set = set(keep)
    unknown = [c for c in keep_set if j._index(c) is None]
    if unknown:
        raise ValueError(f"unknown coordinates: {sorted(unknown)}")
    if keep_set and j._layout is not None:
        lo = min(n for _, n in keep_set)
        hi = max(n for _, n in keep_set)
        na = j._layout[1].shape[-1] // 2
        if len(keep_set) == na * (hi - lo + 1):
            window = _sweep_window(j, lo, hi)
            if window is not None:
                return JointEfim(position_coords(na, hi + 1, lo), window)
    return _dense_marginal_efim(j, keep_set)


def _dense_marginal_efim(j: JointEfim, keep_set: set[tuple[int, int]]) -> JointEfim:
    """Eliminate every coordinate outside `keep_set` from `j` at once: the
    reference the sweep is checked against. The kept coords stay in
    `j.coords` order; a null direction of the dropped block that carries
    information to the kept ones raises `SingularBlockError`. Entries of the
    result at or below the local round-off floor,
    _ROUNDOFF_FLOOR_FACTOR * dim * sqrt(a_ii * a_jj) with a the kept block
    before reduction and dim the joint dimension, are exact zeros: an agent
    the reduction leaves uninformed would otherwise scale that round-off into
    coupling."""
    kept = [c in keep_set for c in j.coords]
    coords = tuple(c for c, k in zip(j.coords, kept) if k)
    rows = np.repeat(kept, 2)
    if rows.all():
        return JointEfim(coords, j.matrix.copy())
    a = j.matrix[np.ix_(rows, rows)]
    b = j.matrix[np.ix_(rows, ~rows)]
    c = j.matrix[np.ix_(~rows, ~rows)]
    reduced = _reduce(a, b, c, b.T, "marginal_efim")
    reduced = 0.5 * (reduced + reduced.T)
    scale = np.sqrt(np.abs(np.diag(a)))
    reduced[np.abs(reduced) <= _ROUNDOFF_FLOOR_FACTOR * len(rows) * np.outer(scale, scale)] = 0.0
    return JointEfim(coords, reduced)


def _tridiagonal_blocks(j: JointEfim) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(first step, D, B) of a joint EFIM the block-tridiagonal sweep may
    run on, else None. D[n] is the symmetrized diagonal block of step n and
    B[n] the block between steps n and n+1, each 2Na x 2Na.

    The domain: `j` holds a builder's band layout (`_layout`, from
    `assemble_position_efim` or `independent_params_efim`: time-major
    `position_coords` and zeros beyond adjacent steps by construction); it
    has more than _SWEEP_MIN_DIM rows; every inter-step block is negative
    definite; and the time-collapsed matrix sum_{n,m} J_nm has a scaled
    smallest eigenvalue above _COLLAPSED_MIN_EIG (`_check_bands`). For an
    EFIM of per-step information plus links between consecutive steps the
    last two hold exactly when J is positive definite: a null vector of
    such a J shifts every step by the same u, and u is then a null vector
    of the collapsed matrix. The sweep's Cholesky factors confirm it. A
    `JointEfim` built from a bare matrix is always read densely.
    """
    if j._layout is None:
        return None
    start, d, upper = j._layout
    if len(d) * d.shape[-1] <= _SWEEP_MIN_DIM:
        return None
    return _check_bands(start, 0.5 * (d + d.transpose(0, 2, 1)), upper)


def _check_bands(
    start: int, d: np.ndarray, upper: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """(start, d, upper) when every inter-step block is negative definite
    and the time-collapsed matrix has a scaled smallest eigenvalue above
    _COLLAPSED_MIN_EIG, else None.

    A builder's links are block-diagonal over agents (`_temporal_matrices`,
    `_mobility_links`), so only their (T-1, Na, 2, 2) agent blocks are
    factored: a Cholesky factor of a block-diagonal matrix meets exactly
    the pivots of its blocks."""
    links = upper.sum(axis=0)
    collapsed = d.sum(axis=0) + links + links.T
    diag = np.diag(collapsed)
    if not (diag > 0.0).all():
        return None
    scale = np.sqrt(diag)
    na = upper.shape[-1] // 2
    grid = upper.reshape(len(upper), na, 2, na, 2)
    blocks = np.moveaxis(grid.diagonal(axis1=1, axis2=3), -1, 1)
    try:
        np.linalg.cholesky(-0.5 * (blocks + blocks.swapaxes(-1, -2)))
    except np.linalg.LinAlgError:
        return None
    min_eig = np.linalg.eigvalsh(collapsed / scale[:, None] / scale[None, :])[0]
    if not min_eig > _COLLAPSED_MIN_EIG:
        return None
    return start, d, upper


def _extend_carries(carries: list, d: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """Information the first `count` steps of a block-tridiagonal chain pass
    on to step `count`: B^T F^-1 B with F the running Schur complement of
    the last eliminated step. One Cholesky factor of the two-step block
    [[F, B], [B^T, D_next]] gives it: its lower-left block is
    L21 = B^T L11^-T, so the carry is L21 L21^T. This is the carry-over
    recursion; run on the reversed chain with transposed links it is the
    backward sweep.

    `carries[n]` holds the carry into step n for every n computed so far,
    from the zero carry into the first step; only the steps past the end
    of the list are run, and their carries are kept. Raises LinAlgError
    when some two-step block is not positive definite; for a positive
    definite EFIM every one is.
    """
    size = d.shape[-1]
    # cholesky reads the lower triangle only, so the upper-right block stays zero
    pair = np.zeros((2 * size, 2 * size))
    for n in range(len(carries) - 1, count):
        pair[:size, :size] = d[n] - carries[n]
        pair[size:, :size] = b[n].T
        pair[size:, size:] = d[n + 1]
        low = np.linalg.cholesky(pair)[size:, :size]
        # a concurrent read may have stored this step already, with the same bits
        carries[n + 1 : n + 2] = [low @ low.T]
    return carries[count]


def _sweep_window(j: JointEfim, lo: int, hi: int) -> np.ndarray | None:
    """Marginal EFIM of all agents over steps lo..hi by forward and backward
    Schur sweeps, or None when `j` is outside the sweep's domain."""
    found = j._tridiagonal
    if found is None:
        return None
    start, d, b, forward, backward = found
    lo, hi = lo - start, hi - start
    try:
        head = _extend_carries(forward, d, b, lo)
        tail = _extend_carries(
            backward, d[::-1], b[::-1].transpose(0, 2, 1), len(d) - 1 - hi
        )
    except np.linalg.LinAlgError:
        return None
    size = d.shape[1]
    _, diag, upper = j._layout
    # the bytes of a slice of the dense matrix, without laying it out
    out = _lay_out(diag[lo : hi + 1], upper[lo:hi])
    out[:size, :size] -= head
    out[-size:, -size:] -= tail
    return 0.5 * (out + out.T)


def carry_over_step(
    k_now: np.ndarray,
    s_prev: np.ndarray,
    carry_prev: np.ndarray | None = None,
) -> np.ndarray:
    """One step of the carry-over recursion.

    Given the velocity information K linking the previous step to the current
    one, and the previous step's total position information S + carry, the
    information surviving into the current step is
    K - K (S + carry + K)^-1 K: PSD and never exceeding K, with equality in
    the limit of a perfectly known previous position. The seed carry is zero.

    The subtraction cannot resolve below round-off relative to K, so
    eigenvalues under that noise floor are returned as exact zeros; an
    uninformed past then carries exactly nothing instead of eps-scale noise
    that later stages could mistake for information.

    Leading axes stack independent recursions; a 2-D call is a stack of one.
    """
    k = np.asarray(k_now, dtype=float)
    total = np.asarray(s_prev, dtype=float) + k
    if carry_prev is not None:
        total = total + np.asarray(carry_prev, dtype=float)
    out = eliminate_block(k, k, total, k)
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    if out.shape[-1] == 0:
        return out
    w, v = np.linalg.eigh(out)
    scale = np.abs(k).max(axis=(-2, -1), initial=0.0)[..., None]
    w = np.where(w > _ROUNDOFF_FLOOR_FACTOR * w.shape[-1] * scale, w, 0.0)
    return (v * w[..., None, :]) @ np.swapaxes(v, -1, -2)


def individual_efims(total: np.ndarray) -> list[np.ndarray]:
    """Per-agent 2x2 position information inside a one-step network matrix:
    the inverse of each agent's block of the network-wide inverse, from one
    stacked Schur complement."""
    total = np.asarray(total, dtype=float)
    na = total.shape[0] // 2
    # agent k's copy lists its own two rows first, then the others in order
    rest = np.arange(2 * na - 2)
    rest = rest + 2 * (rest >= 2 * np.arange(na)[:, None])
    order = np.concatenate([2 * np.arange(na)[:, None] + [0, 1], rest], axis=1)
    copies = total[order[:, :, None], order[:, None, :]]
    return list(
        eliminate_block(copies[:, :2, :2], copies[:, :2, 2:], copies[:, 2:, 2:], copies[:, 2:, :2])
    )


def spatial_step_matrix(scenario: Scenario, n: int) -> np.ndarray:
    """Network ranging matrix of one time step (2*Na x 2*Na): pair blocks on
    both member diagonals, their negatives between agent pairs, plus the
    step's priors."""
    if not 0 <= n < scenario.geometry.num_steps:
        raise ValueError(f"step {n} out of range")
    return _scenario_spatial(scenario, n, n + 1)[0]


def temporal_step_blocks(scenario: Scenario, n: int) -> list[np.ndarray]:
    """Per-agent velocity blocks for the transition into step n (n >= 1)."""
    if not 1 <= n < scenario.geometry.num_steps:
        raise ValueError(f"no transition into step {n}")
    coeffs = scenario.coeffs[None, n - 1 : n]
    return list(temporal_block(scenario.geometry.paths[None], coeffs, n)[0, 0])


@dataclass(frozen=True)
class WeightedSplit:
    """Carry-over as a weighted sum of its two ingredient matrices."""

    w_spatial: float
    w_temporal: float


def decompose_weighted_sum(k: np.ndarray, s: np.ndarray) -> WeightedSplit:
    """Express K - K (S + K)^-1 K as w_s * S + w_k * K (2x2 only).

    The weights are determinant ratios: w_s = |K| / |S+K|, w_k = |S| / |S+K|.
    """
    k = np.asarray(k, dtype=float)
    s = np.asarray(s, dtype=float)
    det_sum = float(np.linalg.det(s + k))
    if det_sum == 0.0:
        raise ValueError("singular sum: |S + K| = 0")
    return WeightedSplit(
        w_spatial=float(np.linalg.det(k)) / det_sum,
        w_temporal=float(np.linalg.det(s)) / det_sum,
    )


@dataclass(frozen=True)
class AxesCouplingSplit:
    """Carry-over split along the temporal information's own axes.

    `along` and `across` are the rank-1 pieces of the temporal information on
    its eigen-axes; zeta1/zeta2 in (0, 1] down-weight them by the directional
    position uncertainty, and `coupling` (on the trace-free cross matrix of
    the same axes) captures eigen-axis misalignment with the spatial
    information.
    """

    zeta1: float
    zeta2: float
    coupling: float
    along: np.ndarray
    across: np.ndarray
    angle: float

    def reconstruct(self) -> np.ndarray:
        return (
            self.zeta1 * self.along
            + self.zeta2 * self.across
            + self.coupling * r_cross(self.angle)
        )


def decompose_axes_coupling(k_eigen: Eigen2, s: np.ndarray) -> AxesCouplingSplit:
    """Split the carry-over of K = lam*R(angle) + nu*R(angle+pi/2) against S.

    Uses the resolvent forms: zeta1 = (1 + lam * u' (S+D)^-1 u)^-1 and its
    mirror for zeta2, and coupling = -2*lam*nu * u' (S+C+D)^-1 u_perp. These
    extend beyond 2-D; the determinant shortcuts live in
    `axes_coupling_closed_form`.
    """
    lam, nu, angle = k_eigen.lambda1, k_eigen.lambda2, k_eigen.angle1
    s = np.asarray(s, dtype=float)
    u = unit_vector(angle)
    u_perp = unit_vector(angle + 0.5 * math.pi)
    along = lam * r_dir(angle)
    across = nu * r_dir(angle + 0.5 * math.pi)
    zeta1 = 1.0 / (1.0 + lam * float(u @ np.linalg.inv(s + across) @ u))
    zeta2 = 1.0 / (1.0 + nu * float(u_perp @ np.linalg.inv(s + along) @ u_perp))
    coupling = -2.0 * lam * nu * float(
        u @ np.linalg.inv(s + along + across) @ u_perp
    )
    return AxesCouplingSplit(zeta1, zeta2, coupling, along, across, angle)


def axes_coupling_closed_form(
    k_eigen: Eigen2, s: np.ndarray
) -> tuple[float, float, float]:
    """2-D determinant closed forms of the axes-coupling split.

    zeta1 = |S+D| / |S+D+C|, zeta2 = |S+C| / |S+C+D|, and the coupling equals
    lam * nu * (eigenvalue spread of S) * sin(2 * angle offset) / |S+C+D|.
    """
    lam, nu, angle = k_eigen.lambda1, k_eigen.lambda2, k_eigen.angle1
    s = np.asarray(s, dtype=float)
    along = lam * r_dir(angle)
    across = nu * r_dir(angle + 0.5 * math.pi)
    det_all = float(np.linalg.det(s + along + across))
    if det_all == 0.0:
        raise ValueError("singular sum")
    s_eig = eigen2(s)
    zeta1 = float(np.linalg.det(s + across)) / det_all
    zeta2 = float(np.linalg.det(s + along)) / det_all
    coupling = (
        lam
        * nu
        * (s_eig.lambda2 - s_eig.lambda1)
        * math.sin(2.0 * (angle - s_eig.angle1))
        / det_all
    )
    return zeta1, zeta2, coupling


def _bounds(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-block SPEB (..., dim/2) of symmetric matrices of consecutive 2x2
    blocks and each matrix's null-direction count (...): per block, the sum
    of mass_i / w_i over the kept directions i of `_scaled_eigh` (mass_i:
    eigenvector i's weight on the block), +inf where a null direction
    touches it. Matrices with null directions are grouped by their number
    k of kept directions; each block's kept terms are summed as a
    contiguous row of k, which rounds as a sum over those terms alone."""
    lead, dim = matrix.shape[:-2], matrix.shape[-1]
    size, na = math.prod(lead), dim // 2
    w, v, scale = _scaled_eigh(matrix.reshape(size, dim, dim))
    cutoff = _SPEB_NULL_FACTOR * max(dim, 1) * np.abs(w).max(axis=-1, initial=0.0)
    null = w <= cutoff[:, None]
    # mass[m, k, i]: weight of eigenvector i on block k of matrix m
    mass = ((v.reshape(size, na, 2, dim) / scale.reshape(size, na, 2, 1)) ** 2).sum(axis=-2)
    out = (mass / np.where(null, 1.0, w)[:, None, :]).sum(axis=-1)
    counts = null.sum(axis=-1)
    singular = np.flatnonzero(counts)
    if singular.size:
        for k in np.unique(dim - counts[singular]):
            group = singular[counts[singular] == dim - k]
            kept = np.nonzero(~null[group])[1].reshape(len(group), 1, k)
            terms = np.take_along_axis(mass[group], kept, -1)
            terms /= np.take_along_axis(w[group, None], kept, -1)
            out[group] = terms.sum(axis=-1)
        touched = (null[singular, None, :] & (mass[singular] > NULL_SUPPORT_TOL)).any(axis=-1)
        out[singular] = np.where(touched, math.inf, out[singular])
    return out.reshape(*lead, na), counts.reshape(lead)


def speb_with_rank(j: JointEfim, agent: int, step: int) -> tuple[float, int]:
    """Squared position error bound plus the EFIM's null-space dimension.

    The bound is the trace of the (agent, step) 2x2 block of the inverse
    EFIM. A singular EFIM yields +inf for positions its null space touches
    (no exception: unanchored scenarios are legitimate); the second value
    reports how many null directions the matrix has.

    Inside the block-tridiagonal domain (see `_tridiagonal_blocks`: a
    positive definite EFIM from a builder's band layout) the bound and the
    null count are read from the step's marginal 2Na x 2Na EFIM,
    D_n - B_{n-1}^T F_{n-1}^-1 B_{n-1} - B_n G_{n+1}^-1 B_n^T, built by
    forward and backward Schur sweeps in O(T * Na^3) that extend the
    carries earlier reads of `j` left, so reading every bound of `j` costs
    O(T * Na^3) in all. Every other input, singular or a bare matrix, takes
    one dense eigendecomposition of the whole matrix, O((Na * T)^3), and `j`
    keeps every block's bound and the null count it gives for its later
    reads. Both paths read through `_bounds`, as `block_spebs` does.
    """
    block = j.rows(agent, step).start // 2
    window = _sweep_window(j, step, step)
    if window is None:
        spebs, null_count = j._dense_bounds
    else:
        spebs, null_count = _bounds(window)
        block = agent
    return float(spebs[block]), int(null_count)


def speb(j: JointEfim, agent: int, step: int) -> float:
    """Squared position error bound (m^2) of one agent at one step."""
    return speb_with_rank(j, agent, step)[0]


def block_spebs(matrix: np.ndarray) -> np.ndarray:
    """Per-block SPEB of a symmetric matrix of consecutive 2x2 blocks, the
    first value of `_bounds`.

    Used on single-step network matrices (2*Na x 2*Na): returns one value per
    agent, +inf where the null space touches the agent. Leading axes stack
    independent matrices: (..., 2*Na, 2*Na) gives (..., Na).
    """
    return _bounds(np.asarray(matrix, dtype=float))[0]
