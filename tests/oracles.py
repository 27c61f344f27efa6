"""Independent reference computations for the test suite.

Everything here is deliberately written against raw numpy (no navlim
geometry or assembly helpers): dense joint Fisher information matrices built
from per-measurement Jacobians, brute-force Schur complements, and
finite-difference Hessians. Tests compare the package's structured
assemblies against these. The exceptions, at the end, are former package
paths kept as they were: the sweep audit's (one built scenario per horizon,
assembled and marginalized by navlim's own dense path), the
hidden-Markov chain elimination by a forward pass with explicit fill-in,
scattered into the Bayesian EFIM one block at a time, the per-block
SPEB read, the sweep's domain check with one factor of the stacked
links, the distributed carry-over and `_reduce`'s leak test one agent
or one matrix at a time, and the independent-parameter EFIM taking
intra-node blocks beside the scenario's priors.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from navlim import navinfo, simkit
from navlim.blockfim import (
    LEAK_TOL,
    PINV_RCOND,
    ChainBlocks,
    SingularBlockError,
    _scaled_eigh,
    block_diag,
    eliminate_block,
)
from navlim.models import MobilityModel, ScenarioGeometry


@dataclass(frozen=True)
class RangingSpec:
    """One Gaussian ranging measurement between nodes k < j at step n:
    z1 = distance + bias_coef * bias + w1, z2 = bias + w2."""

    k: int
    j: int
    n: int
    sigma_main: float
    sigma_side: float
    bias_coef: float


@dataclass(frozen=True)
class VelocitySpec:
    """One Gaussian velocity measurement of agent k's step into n:
    z = [length + a1 * drift, heading + a2 * drift, drift] + noise."""

    k: int
    n: int
    sigma_len: float
    sigma_head: float
    sigma_drift: float
    a1: float
    a2: float


@dataclass(frozen=True)
class GaussianCase:
    """A full random scenario for oracle comparison."""

    paths: np.ndarray  # (num_nodes, T, 2)
    num_agents: int
    rangings: tuple[RangingSpec, ...]
    velocities: tuple[VelocitySpec, ...]


def random_gaussian_case(
    rng: np.random.Generator,
    max_agents: int = 3,
    max_anchors: int = 3,
    min_anchors: int = 0,
    max_steps: int = 4,
) -> GaussianCase:
    while True:
        na = int(rng.integers(1, max_agents + 1))
        nb = int(rng.integers(min_anchors, max_anchors + 1))
        t = int(rng.integers(1, max_steps + 1))
        starts = rng.uniform(0.0, 20.0, size=(na + nb, 2))
        paths = np.repeat(starts[:, None, :], t, axis=1)
        for k in range(na):
            for n in range(1, t):
                angle = rng.uniform(0.0, 2.0 * math.pi)
                mag = rng.uniform(0.3, 2.0)
                paths[k, n] = paths[k, n - 1] + mag * np.array(
                    [math.cos(angle), math.sin(angle)]
                )
        if _min_pair_distance(paths, na) > 0.2:
            break
    rangings = []
    for n in range(t):
        for k in range(na):
            for j in range(k + 1, na + nb):
                if rng.uniform() < 0.7:
                    rangings.append(
                        RangingSpec(
                            k,
                            j,
                            n,
                            sigma_main=float(rng.uniform(0.2, 1.0)),
                            sigma_side=float(rng.uniform(0.2, 1.0)),
                            bias_coef=float(rng.uniform(0.5, 2.0)),
                        )
                    )
    velocities = []
    for n in range(1, t):
        for k in range(na):
            if rng.uniform() < 0.9:
                velocities.append(
                    VelocitySpec(
                        k,
                        n,
                        sigma_len=float(rng.uniform(0.2, 1.0)),
                        sigma_head=float(rng.uniform(0.2, 1.0)),
                        sigma_drift=float(rng.uniform(0.2, 1.0)),
                        a1=float(rng.uniform(-1.0, 1.0)),
                        a2=float(rng.uniform(-1.0, 1.0)),
                    )
                )
    return GaussianCase(paths, na, tuple(rangings), tuple(velocities))


def _min_pair_distance(paths: np.ndarray, num_agents: int) -> float:
    num_nodes, t, _ = paths.shape
    best = math.inf
    for n in range(t):
        for k in range(num_agents):
            for j in range(num_nodes):
                if j == k:
                    continue
                best = min(best, float(np.linalg.norm(paths[j, n] - paths[k, n])))
    return best


def dense_position_fim(case: GaussianCase) -> np.ndarray:
    """Joint FIM over (positions, all nuisances), then brute-force Schur onto
    positions. Position coordinates are time-major then agent, 2 each."""
    na = case.num_agents
    t = case.paths.shape[1]
    pos_dim = 2 * na * t
    dim = pos_dim + len(case.rangings) + len(case.velocities)
    fim = np.zeros((dim, dim))

    def pos_index(k: int, n: int) -> int:
        return 2 * (n * na + k)

    def add_row(grad: np.ndarray, weight: float) -> None:
        fim[:, :] += weight * np.outer(grad, grad)

    for idx, spec in enumerate(case.rangings):
        bias = pos_dim + idx
        delta = case.paths[spec.k, spec.n] - case.paths[spec.j, spec.n]
        dist = float(np.linalg.norm(delta))
        g = delta / dist
        grad = np.zeros(dim)
        grad[pos_index(spec.k, spec.n) : pos_index(spec.k, spec.n) + 2] = g
        if spec.j < na:
            grad[pos_index(spec.j, spec.n) : pos_index(spec.j, spec.n) + 2] = -g
        grad[bias] = spec.bias_coef
        add_row(grad, 1.0 / spec.sigma_main**2)
        grad2 = np.zeros(dim)
        grad2[bias] = 1.0
        add_row(grad2, 1.0 / spec.sigma_side**2)

    for idx, spec in enumerate(case.velocities):
        drift = pos_dim + len(case.rangings) + idx
        delta = case.paths[spec.k, spec.n] - case.paths[spec.k, spec.n - 1]
        dist = float(np.linalg.norm(delta))
        u = delta / dist
        u_perp = np.array([-u[1], u[0]])
        here = pos_index(spec.k, spec.n)
        prev = pos_index(spec.k, spec.n - 1)
        grad = np.zeros(dim)
        grad[here : here + 2] = u
        grad[prev : prev + 2] = -u
        grad[drift] = spec.a1
        add_row(grad, 1.0 / spec.sigma_len**2)
        grad = np.zeros(dim)
        grad[here : here + 2] = u_perp / dist
        grad[prev : prev + 2] = -u_perp / dist
        grad[drift] = spec.a2
        add_row(grad, 1.0 / spec.sigma_head**2)
        grad = np.zeros(dim)
        grad[drift] = 1.0
        add_row(grad, 1.0 / spec.sigma_drift**2)

    a = fim[:pos_dim, :pos_dim]
    b = fim[:pos_dim, pos_dim:]
    c = fim[pos_dim:, pos_dim:]
    if c.size == 0:
        return a.copy()
    return a - b @ np.linalg.inv(c) @ b.T


def ranging_local_info(spec: RangingSpec) -> np.ndarray:
    """2x2 information over (distance, bias) of one ranging measurement."""
    w1 = 1.0 / spec.sigma_main**2
    w2 = 1.0 / spec.sigma_side**2
    g1 = np.array([1.0, spec.bias_coef])
    g2 = np.array([0.0, 1.0])
    return w1 * np.outer(g1, g1) + w2 * np.outer(g2, g2)


def velocity_local_info(spec: VelocitySpec) -> np.ndarray:
    """3x3 information over (length, heading, drift) of one velocity
    measurement."""
    rows = np.array([[1.0, 0.0, spec.a1], [0.0, 1.0, spec.a2], [0.0, 0.0, 1.0]])
    weights = np.array(
        [1.0 / spec.sigma_len**2, 1.0 / spec.sigma_head**2, 1.0 / spec.sigma_drift**2]
    )
    return rows.T @ (weights[:, None] * rows)


def random_chain(
    rng: np.random.Generator,
    max_steps: int = 6,
    max_dim: int = 3,
    steps: int | None = None,
    state_dim: int | None = None,
):
    """Random PD hidden-Markov chain as raw per-step blocks plus the dense
    matrix it came from. Returns (blocks dict, dense matrix, state slices,
    nuisance slices)."""
    t = steps if steps is not None else int(rng.integers(1, max_steps + 1))
    sdims = [
        state_dim if state_dim is not None else int(rng.integers(1, max_dim + 1))
        for _ in range(t)
    ]
    ndims = [int(rng.integers(1, max_dim + 1)) for _ in range(t)]
    dim = sum(sdims) + sum(ndims)
    state_off = np.cumsum([0] + sdims)
    nuis_off = np.cumsum([0] + ndims) + sum(sdims)
    dense = np.zeros((dim, dim))

    def sym(n):
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        return 0.5 * (m + m.T)

    state_direct, nuis_diag, nuis_off_blocks, cross_same, cross_next = [], [], [], [], []
    for n in range(t):
        state_direct.append(sym(sdims[n]))
        nuis_diag.append(sym(ndims[n]))
        cross_same.append(rng.uniform(-1.0, 1.0, size=(sdims[n], ndims[n])))
        if n < t - 1:
            nuis_off_blocks.append(rng.uniform(-1.0, 1.0, size=(ndims[n], ndims[n + 1])))
            cross_next.append(rng.uniform(-1.0, 1.0, size=(sdims[n], ndims[n + 1])))

    for n in range(t):
        s = slice(state_off[n], state_off[n + 1])
        g = slice(nuis_off[n], nuis_off[n + 1])
        dense[s, s] += state_direct[n]
        dense[g, g] += nuis_diag[n]
        dense[s, g] += cross_same[n]
        dense[g, s] += cross_same[n].T
        if n < t - 1:
            g2 = slice(nuis_off[n + 1], nuis_off[n + 2])
            s2 = slice(nuis_off[n], nuis_off[n + 1])
            dense[s2, g2] += nuis_off_blocks[n]
            dense[g2, s2] += nuis_off_blocks[n].T
            dense[s, g2] += cross_next[n]
            dense[g2, s] += cross_next[n].T

    shift = max(0.0, -float(np.linalg.eigvalsh(dense).min())) + 0.5
    for n in range(t):
        state_direct[n] = state_direct[n] + shift * np.eye(sdims[n])
        nuis_diag[n] = nuis_diag[n] + shift * np.eye(ndims[n])
    dense = dense + shift * np.eye(dim)

    blocks = {
        "state_direct": tuple(state_direct),
        "nuis_diag": tuple(nuis_diag),
        "nuis_offdiag": tuple(nuis_off_blocks),
        "cross_same": tuple(cross_same),
        "cross_next": tuple(cross_next),
    }
    state_slices = [slice(state_off[n], state_off[n + 1]) for n in range(t)]
    nuis_slices = [slice(nuis_off[n], nuis_off[n + 1]) for n in range(t)]
    return blocks, dense, state_slices, nuis_slices


def dense_chain_reduction(dense: np.ndarray, state_slices, nuis_slices) -> dict:
    """Brute-force elimination of all nuisance coordinates of a chain matrix;
    returns per (n, m) state-state blocks."""
    dim = dense.shape[0]
    state_idx = np.concatenate([np.arange(s.start, s.stop) for s in state_slices])
    nuis_idx = np.concatenate([np.arange(s.start, s.stop) for s in nuis_slices])
    a = dense[np.ix_(state_idx, state_idx)]
    b = dense[np.ix_(state_idx, nuis_idx)]
    c = dense[np.ix_(nuis_idx, nuis_idx)]
    reduced = a - b @ np.linalg.inv(c) @ b.T
    out = {}
    offsets = np.cumsum([0] + [s.stop - s.start for s in state_slices])
    for n in range(len(state_slices)):
        for m in range(n, len(state_slices)):
            out[(n, m)] = reduced[
                offsets[n] : offsets[n + 1], offsets[m] : offsets[m + 1]
            ]
    return out


def fd_hessian(fun, x0: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite-difference Hessian (exact for quadratics up to
    round-off)."""
    n = len(x0)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            val = (
                fun(x0 + ei + ej)
                - fun(x0 + ei - ej)
                - fun(x0 - ei + ej)
                + fun(x0 - ei - ej)
            ) / (4.0 * h * h)
            out[i, j] = val
            out[j, i] = val
    return out


def rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(b)), 1e-30)
    return float(np.linalg.norm(a - b)) / denom


def random_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((dim, dim))
    return scale * (m @ m.T + 0.1 * np.eye(dim))


def pair_blocks(paths: np.ndarray, k, j, n, lam) -> np.ndarray:
    """Ranging blocks lam * u u^T of node pairs (k, j) at steps n, u the unit
    vector from node k to node j; the index arrays and `lam` broadcast."""
    diff = paths[j, n] - paths[k, n]
    dist = np.linalg.norm(diff, axis=-1)
    u = diff / np.where(dist > 0.0, dist, 1.0)[..., None]
    return np.asarray(lam, dtype=float)[..., None, None] * (u[..., :, None] * u[..., None, :])


def scatter_spatial_matrices(
    scenario, first: int, stop: int, anchors_only: bool = False
) -> np.ndarray:
    """Network ranging matrices of steps first..stop-1 of a scenario, priors
    included, shape (steps, 2*Na, 2*Na), by one np.add.at scatter of every
    listed pair's block: onto its agent's diagonal, then (agent peers only)
    onto the peer's diagonal and, negated, between the two. A diagonal block
    thus sums the pairs its agent opens before those it closes, each in
    listing order. `anchors_only` keeps the agent-anchor pairs."""
    geom = scenario.geometry
    na, steps = geom.num_agents, stop - first
    out = np.zeros((steps, na, na, 2, 2))
    if scenario.range_model is not None:
        listing = [
            (k, j, n)
            for n in range(first, stop)
            for k, j in scenario.pairs[n]
            if not anchors_only or j >= na
        ]
        k, peer, n = (np.array([entry[i] for entry in listing], dtype=int) for i in range(3))
        blocks = pair_blocks(geom.paths, k, peer, n, scenario.range_model.intensity_at(k, peer, n))
        agent_peer = peer < na
        ap_n, ap_k, ap_peer, ap_blocks = (a[agent_peer] for a in (n, k, peer, blocks))
        np.add.at(
            out,
            (
                np.concatenate([n, ap_n, ap_n, ap_n]) - first,
                np.concatenate([k, ap_peer, ap_k, ap_peer]),
                np.concatenate([k, ap_peer, ap_peer, ap_k]),
            ),
            np.concatenate([blocks, ap_blocks, -ap_blocks, -ap_blocks.transpose(0, 2, 1)]),
        )
    for k, n, blk in scenario.priors:
        if first <= n < stop:
            out[n - first, k, k] += np.asarray(blk, dtype=float)
    return out.transpose(0, 1, 3, 2, 4).reshape(steps, 2 * na, 2 * na)


def velocity_matrices(scenario, first: int, stop: int) -> np.ndarray:
    """Block-diagonal network velocity matrices of the transitions into steps
    first..stop-1 (first >= 1), one agent and step at a time in scalar
    arithmetic: along * I for isotropic intensities, else R L R^T in the
    frame (c, s) of the step displacement, symmetrized."""
    geom = scenario.geometry
    na, steps = geom.num_agents, stop - first
    out = np.zeros((steps, na, na, 2, 2))
    model = scenario.velocity_model
    for n in range(first, stop):
        for k in range(na if model is not None else 0):
            a, b, x = (float(v) for v in model.coeffs_at(k, n))
            if x == 0.0 and a == b:
                out[n - first, k, k] = a * np.eye(2)
                continue
            dx, dy = (float(v) for v in geom.paths[k, n] - geom.paths[k, n - 1])
            dist = float(np.linalg.norm(np.array([[dx, dy]]), axis=-1)[0])
            c, s = dx / dist, dy / dist
            # R L with R = [[c, -s], [s, c]], L = [[a, x], [x, b]]; then (R L) R^T
            r00, r01 = c * a - s * x, c * x - s * b
            r10, r11 = s * a + c * x, s * x + c * b
            b00, b01 = r00 * c - r01 * s, r00 * s + r01 * c
            b10, b11 = r10 * c - r11 * s, r10 * s + r11 * c
            off = 0.5 * (b01 + b10)
            out[n - first, k, k] = [[b00, off], [off, b11]]
    return out.transpose(0, 1, 3, 2, 4).reshape(steps, 2 * na, 2 * na)


def band_matrix(diag: np.ndarray, links: np.ndarray) -> np.ndarray:
    """Joint matrix over consecutive steps, time-major: diag[n] + links[n] +
    links[n-1] on step n's diagonal block, -links[n] between steps n and
    n+1."""
    steps, size = diag.shape[0], diag.shape[-1]
    out = np.zeros((steps * size, steps * size))
    for n in range(steps):
        block = diag[n].copy()
        if n < steps - 1:
            block += links[n]
        if n > 0:
            block += links[n - 1]
        rows = slice(n * size, (n + 1) * size)
        out[rows, rows] = block
        if n < steps - 1:
            nxt = slice((n + 1) * size, (n + 2) * size)
            out[rows, nxt] = -links[n]
            out[nxt, rows] = -links[n].T
    return out


def inline_random_walks(seed: int, area, num_agents: int, num_steps: int, step_cov) -> np.ndarray:
    """Agent paths of a scenario file's integer `agents`, by the formula the
    file loader once carried inline: starts uniform in the area, then
    Gaussian steps through the Cholesky factor of the step covariance."""
    rng = np.random.default_rng([seed])
    starts = rng.uniform((0.0, 0.0), tuple(area), size=(num_agents, 2))
    steps = rng.standard_normal((num_agents, num_steps - 1, 2)) @ np.linalg.cholesky(step_cov).T
    return np.concatenate(
        [starts[:, None, :], starts[:, None, :] + np.cumsum(steps, axis=1)], axis=1
    )


def mobility_blocks(model, num_steps: int) -> list[tuple[int, int, np.ndarray]]:
    """Single-agent information contributions of a random-walk prior with
    `model.step_cov` and optional `model.initial_prior`: each transition
    n -> n+1 adds inv(step_cov) to both adjacent diagonal blocks and
    -inv(step_cov) between them; the initial prior lands on step 0. Returned
    as (step_i, step_j, block) with step_i <= step_j."""
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


def scatter_mobility(matrix: np.ndarray, num_agents: int, model) -> None:
    """Add every agent's `mobility_blocks` to a time-major joint matrix over
    (agent, step) positions in place, one block at a time, each block off
    the diagonal also transposed onto its mirror."""
    t = matrix.shape[0] // (2 * num_agents)

    def rows(k: int, n: int) -> slice:
        return slice(2 * (n * num_agents + k), 2 * (n * num_agents + k) + 2)

    for k in range(num_agents):
        for n, m, blk in mobility_blocks(model, t):
            matrix[rows(k, n), rows(k, m)] += blk
            if n != m:
                matrix[rows(k, m), rows(k, n)] += blk.T


def extend_carries_by_solve(carries: list, d: np.ndarray, b: np.ndarray, count: int) -> np.ndarray:
    """The block-tridiagonal Schur carry B^T F^-1 B into step `count`, one
    step at a time as the sweep once computed it: F = L L^T by Cholesky,
    X = L^-1 B by a general LU solve, carry X^T X. `carries` starts as
    [zero] and is extended in place past its end; raises LinAlgError when
    some F is not positive definite."""
    for n in range(len(carries) - 1, count):
        x = np.linalg.solve(np.linalg.cholesky(d[n] - carries[n]), b[n])
        carries[n + 1 : n + 2] = [x.T @ x]
    return carries[count]


# ---------------------------------------------------------------------------
# the sweep audit's former path: a generated scenario and one rebuilt,
# assembled and densely marginalized scenario per horizon


def scenario_chunk(scenarios):
    """The sweep chunk of scenarios of equal shape and no priors: a chunk
    carries none."""
    if any(s.priors for s in scenarios):
        raise ValueError("a sweep chunk carries no priors")
    return simkit._Chunk(
        np.stack([s.geometry.paths for s in scenarios]),
        np.stack([s.weights for s in scenarios]),
        np.stack([s.coeffs for s in scenarios]),
    )


def trial_spebs(scenario, modes) -> dict:
    """The sweep recursion's SPEBs of one scenario at every horizon; a
    failure raises."""
    horizons = range(1, scenario.geometry.num_steps + 1)
    [result] = simkit._stacked_spebs(scenario_chunk([scenario]), modes, horizons)
    if isinstance(result, Exception):
        raise result
    return result


def truncated(scenario, num_steps: int):
    """The scenario's first `num_steps` steps."""
    geometry = ScenarioGeometry(
        scenario.geometry.paths[:, :num_steps], scenario.geometry.num_agents
    )
    return replace(scenario, geometry=geometry, pairs=scenario.pairs[:num_steps])


def dense_final_spebs(scenario, horizon: int) -> np.ndarray:
    """Final-step SPEBs of the scenario's first `horizon` steps by dense
    marginalization of the assembled joint EFIM."""
    full = navinfo.assemble_position_efim(truncated(scenario, horizon))
    na = scenario.geometry.num_agents
    final = navinfo._dense_marginal_efim(full, {(k, horizon - 1) for k in range(na)})
    return navinfo.block_spebs(final.matrix)


def audit_spebs_by_rebuild(cfg) -> tuple[np.ndarray, np.ndarray]:
    """`simkit._audit_spebs` by the former path: the audit trial generated as
    a scenario, its recursion SPEBs, and per horizon the dense SPEBs of the
    truncated scenario, each assembled and marginalized on its own."""
    small = replace(
        cfg,
        num_agents=min(cfg.num_agents, 3),
        num_anchors=max(min(cfg.num_anchors, 3), 1),
        num_steps=min(cfg.num_steps, 4),
        connectivity=None,
    )
    scenario = simkit.generate_scenario(small, (simkit._AUDIT_ENTROPY,))
    joint = simkit.CoopMode.JOINT
    recursive = trial_spebs(scenario, (joint,))[joint.value]
    dense = [dense_final_spebs(scenario, h) for h in range(1, small.num_steps + 1)]
    return recursive, np.stack(dense)


# ---------------------------------------------------------------------------
# hidden-Markov chains by the former forward pass: the running nuisance
# blocks in time order with explicit fill-in, scattered into the Bayesian
# EFIM one 2x2 block at a time


def _chain_part(parts: tuple[np.ndarray, ...], n: int, rows: int, cols: int) -> np.ndarray:
    if parts and n < len(parts):
        return np.asarray(parts[n], dtype=float)
    return np.zeros((rows, cols))


def eliminate_hmm_chain_forward(chain: ChainBlocks) -> dict[tuple[int, int], np.ndarray]:
    """Eliminate a hidden-Markov nuisance chain in time order.

    Returns the state-state information contribution for every step pair
    n <= m after the whole chain is removed. The forward pass keeps, per step,
    the running nuisance block (its Schur complement given all earlier steps)
    and the filled-in state-nuisance cross blocks; each must stay PD, else
    `SingularBlockError` names the failing step.
    """
    t = chain.length
    running: list[np.ndarray] = []
    running_inv: list[np.ndarray] = []
    for n in range(t):
        b = np.asarray(chain.nuis_diag[n], dtype=float)
        b = 0.5 * (b + b.T)
        if n > 0:
            off = _chain_part(chain.nuis_offdiag, n - 1, chain.nuis_dim(n - 1), chain.nuis_dim(n))
            b = b - off.T @ running_inv[n - 1] @ off
        w = np.linalg.eigvalsh(b)
        if w.min() <= PINV_RCOND * max(1.0, w.max()):
            raise SingularBlockError(
                f"nuisance chain block not positive definite at step {n}"
            )
        running.append(b)
        running_inv.append(np.linalg.inv(b))

    # cross[(a, l)]: state(a)-nuisance(l) cross-information once nuisances
    # before step l are eliminated; fill-in propagates forward only.
    cross: dict[tuple[int, int], np.ndarray] = {}
    for a in range(t):
        cross[(a, a)] = _chain_part(chain.cross_same, a, chain.state_dim(a), chain.nuis_dim(a))
    for n in range(t - 1):
        step = running_inv[n] @ _chain_part(
            chain.nuis_offdiag, n, chain.nuis_dim(n), chain.nuis_dim(n + 1)
        )
        for a in range(n + 1):
            fill = -cross[(a, n)] @ step
            if a == n:
                fill = fill + _chain_part(
                    chain.cross_next, n, chain.state_dim(n), chain.nuis_dim(n + 1)
                )
            cross[(a, n + 1)] = fill

    weighted = {(a, l): cross[(a, l)] @ running_inv[l] for (a, l) in cross}
    out: dict[tuple[int, int], np.ndarray] = {}
    for n in range(t):
        for m_ in range(n, t):
            acc = np.zeros((chain.state_dim(n), chain.state_dim(m_)))
            for l in range(m_, t):
                acc -= weighted[(n, l)] @ cross[(m_, l)].T
            if m_ == n:
                acc = acc + np.asarray(chain.state_direct[n], dtype=float)
                acc = 0.5 * (acc + acc.T)
            out[(n, m_)] = acc
    return out


def _scatter(matrix: np.ndarray, ri: slice, ci: slice, block: np.ndarray) -> None:
    matrix[ri, ci] += block
    if ri != ci:
        matrix[ci, ri] += block.T


def bayesian_efim_by_scatter(
    num_agents: int,
    num_steps: int,
    mobility: MobilityModel | None = None,
    intra_chains: Mapping[int, ChainBlocks] | None = None,
    pair_chains: Mapping[tuple[int, int], ChainBlocks] | None = None,
) -> navinfo.BayesianEfim:
    """Joint position EFIM with hidden-Markov measurement-parameter chains.

    Each intra-node chain (key: agent) couples that agent's positions across
    all step pairs once its nuisance sequence is eliminated. Each pairwise
    chain (key: (agent, peer)) acts on the difference coordinate of the pair:
    its contributions scatter positively onto both members' diagonals and
    negatively between them; when the peer is an anchor only the agent side
    has rows. Chain state slots must be 2-dimensional (positions).
    """
    coords = navinfo.position_coords(num_agents, num_steps)
    dim = 2 * len(coords)
    mob = np.zeros((dim, dim))
    temp = np.zeros((dim, dim))
    spat = np.zeros((dim, dim))

    if mobility is not None:
        diag = np.zeros((num_steps, 2 * num_agents, 2 * num_agents))
        # added onto zeros, which turns the -0.0 between unlinked steps into +0.0
        links = navinfo._mobility_links(mobility, diag)
        mob += navinfo._lay_out(*navinfo._band_layout(diag, links))

    def rows(k: int, n: int) -> slice:
        i = 2 * (n * num_agents + k)
        return slice(i, i + 2)

    for k, chain in (intra_chains or {}).items():
        navinfo._check_chain(chain, num_agents, num_steps, k)
        for (n, m), g in eliminate_hmm_chain_forward(chain).items():
            _scatter(temp, rows(k, n), rows(k, m), g)

    for (k, peer), chain in (pair_chains or {}).items():
        navinfo._check_chain(chain, num_agents, num_steps, k)
        if peer == k:
            raise ValueError("pair chain needs two distinct nodes")
        if peer < 0:
            raise ValueError(f"chain references unknown node {peer}")
        for (n, m), g in eliminate_hmm_chain_forward(chain).items():
            _scatter(spat, rows(k, n), rows(k, m), g)
            if peer < num_agents:
                _scatter(spat, rows(peer, n), rows(peer, m), g)
                _scatter(spat, rows(k, n), rows(peer, m), -g)
                if n != m:
                    _scatter(spat, rows(peer, n), rows(k, m), -g)
    return navinfo.BayesianEfim(coords, mob, temp, spat)


# ---------------------------------------------------------------------------
# SPEBs by the former per-block read: one eigendecomposition, then each
# block's bound on its own, a 1-D sum over the kept directions


def null_cutoff(w: np.ndarray) -> np.ndarray:
    """The null cutoff the package applies to scaled eigenvalues `w`."""
    return navinfo._SPEB_NULL_FACTOR * max(w.shape[-1], 1) * np.abs(w).max(axis=-1, initial=0.0)


def speb_of_rows(w, v, scale, rows: slice, cutoff) -> float:
    """SPEB of the block `rows` from a `_scaled_eigh`: +inf when a null
    direction touches the block, else the sum over kept directions."""
    mass = ((v[rows, :] / scale[rows, None]) ** 2).sum(axis=0)
    null = w <= cutoff
    if bool((null & (mass > navinfo.NULL_SUPPORT_TOL)).any()):
        return math.inf
    keep = ~null
    return float((mass[keep] / w[keep]).sum())


def block_spebs_by_block(matrix: np.ndarray) -> np.ndarray:
    """`navinfo.block_spebs` by the former path: a row sum for matrices
    without a null direction, `speb_of_rows` per block for the others."""
    matrix = np.asarray(matrix, dtype=float)
    lead, dim = matrix.shape[:-2], matrix.shape[-1]
    na = dim // 2
    w, v, scale = _scaled_eigh(matrix)
    cutoff = null_cutoff(w)
    null = w <= cutoff[..., None]
    mass = (
        (v.reshape(*lead, na, 2, dim) / scale.reshape(*lead, na, 2)[..., None]) ** 2
    ).sum(axis=-2)
    out = (mass / np.where(null, 1.0, w)[..., None, :]).sum(axis=-1)
    for idx in map(tuple, np.argwhere(null.any(axis=-1))):
        out[idx] = [
            speb_of_rows(w[idx], v[idx], scale[idx], slice(2 * k, 2 * k + 2), cutoff[idx])
            for k in range(na)
        ]
    return out


def speb_with_rank_by_rows(matrix: np.ndarray, rows: slice) -> tuple[float, int]:
    """SPEB of the block `rows` of `matrix` and the matrix's null count."""
    w, v, scale = _scaled_eigh(matrix)
    cutoff = null_cutoff(w)
    return speb_of_rows(w, v, scale, rows, cutoff), int((w <= cutoff).sum())


# ---------------------------------------------------------------------------
# the sweep's domain check by the former link test: one Cholesky factor of
# the stacked (T-1, 2Na, 2Na) links


def check_bands_by_stacked_factor(start: int, d: np.ndarray, upper: np.ndarray):
    """(start, d, upper) when every inter-step block is negative definite
    and the time-collapsed matrix has a scaled smallest eigenvalue above
    navinfo._COLLAPSED_MIN_EIG, else None."""
    links = upper.sum(axis=0)
    collapsed = d.sum(axis=0) + links + links.T
    diag = np.diag(collapsed)
    if not (diag > 0.0).all():
        return None
    scale = np.sqrt(diag)
    try:
        np.linalg.cholesky(-0.5 * (upper + upper.transpose(0, 2, 1)))
    except np.linalg.LinAlgError:
        return None
    min_eig = np.linalg.eigvalsh(collapsed / scale[:, None] / scale[None, :])[0]
    if not min_eig > navinfo._COLLAPSED_MIN_EIG:
        return None
    return start, d, upper


# ---------------------------------------------------------------------------
# the distributed carry-over by the former per-agent loop, and `_reduce`'s
# null-leak test by the former per-matrix loop


def individual_efims_by_agent(total: np.ndarray) -> list[np.ndarray]:
    """Per-agent 2x2 position information inside a one-step network matrix:
    the inverse of each agent's block of the network-wide inverse."""
    total = np.asarray(total, dtype=float)
    na = total.shape[0] // 2
    out = []
    for k in range(na):
        rows = np.arange(2 * k, 2 * k + 2)
        rest = np.setdiff1d(np.arange(2 * na), rows)
        out.append(
            eliminate_block(
                total[np.ix_(rows, rows)],
                total[np.ix_(rows, rest)],
                total[np.ix_(rest, rest)],
                total[np.ix_(rest, rows)],
            )
        )
    return out


def distributed_carry_over_by_agent(s_prev_full, carry_prev, k_now) -> list[np.ndarray]:
    """`navinfo.distributed_carry_over` after its input checks, one
    `carry_over_step` per agent."""
    total = np.asarray(s_prev_full, dtype=float) + block_diag(list(carry_prev))
    return [
        navinfo.carry_over_step(np.asarray(k_now[k], dtype=float), individual)
        for k, individual in enumerate(individual_efims_by_agent(total))
    ]


def _leaks(cross: np.ndarray, cross_back: np.ndarray, null_basis: np.ndarray) -> bool:
    """Whether cross-information enters the (unnormalized) null directions
    beyond round-off."""
    norms = np.linalg.norm(null_basis, axis=0)
    null_basis = null_basis / np.where(norms > 0.0, norms, 1.0)
    ref = max(1.0, float(np.linalg.norm(cross)), float(np.linalg.norm(cross_back)))
    leak = max(
        float(np.linalg.norm(cross @ null_basis)),
        float(np.linalg.norm(null_basis.T @ cross_back)),
    )
    return leak > LEAK_TOL * ref


def reduce_leaks_by_matrix(cross: np.ndarray, nuisance: np.ndarray, cross_back: np.ndarray) -> bool:
    """Whether `blockfim._reduce` finds a null-space leak in any matrix of a
    stack, with the same null directions, tested one matrix at a time."""
    w, v, scale = _scaled_eigh(nuisance)
    cutoff = PINV_RCOND * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    null = np.abs(w) <= cutoff
    v_descaled = v / scale[..., :, None]
    lead = null.shape[:-1]
    cross_b = np.broadcast_to(cross, (*lead, *cross.shape[-2:]))
    back_b = np.broadcast_to(cross_back, (*lead, *cross_back.shape[-2:]))
    return any(
        null[idx].any() and _leaks(cross_b[idx], back_b[idx], v_descaled[idx][:, null[idx]])
        for idx in np.ndindex(lead)
    )


# ---------------------------------------------------------------------------
# the independent-parameter EFIM as it once took intra-node information: a
# mapping of per-(agent, step) blocks added after the scenario's priors


def independent_params_efim_with_state_info(scenario, state_info=None) -> navinfo.JointEfim:
    """`navinfo.independent_params_efim` with the former `state_info`
    argument: each (agent, step) block is added to that position's diagonal
    block, in mapping order, after the scenario's priors and before the
    mobility prior; only its coordinate is checked."""
    if scenario.velocity_model is not None:
        raise ValueError(
            "velocity measurements couple consecutive steps; "
            "this reduction handles single-step measurements only"
        )
    geom = scenario.geometry
    na, t = geom.num_agents, geom.num_steps
    diag = navinfo._scenario_spatial(scenario, 0, t)
    for (k, n), blk in (state_info or {}).items():
        if not (0 <= k < na and 0 <= n < t):
            raise ValueError(f"state_info at unknown coordinate ({k}, {n})")
        diag[n, 2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += np.asarray(blk, dtype=float)
    links = navinfo._mobility_links(scenario.mobility, diag)
    return navinfo.JointEfim._from_layout(0, *navinfo._band_layout(diag, links))
