"""Independent reference computations for the test suite.

Everything here is deliberately written against raw numpy (no navlim
geometry or assembly helpers): dense joint Fisher information matrices built
from per-measurement Jacobians, brute-force Schur complements, and
finite-difference Hessians. Tests compare the package's structured
assemblies against these. The exception is the sweep audit's former
reference path at the end, kept as it was: one built scenario per horizon,
assembled and marginalized by navlim's own dense path.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from navlim import navinfo, simkit
from navlim.models import ScenarioGeometry


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
    """The sweep chunk of scenarios of equal shape."""
    return simkit._Chunk(
        np.stack([s.geometry.paths for s in scenarios]),
        np.stack([s.weights for s in scenarios]),
        np.stack([s.coeffs for s in scenarios]),
        tuple(s.priors for s in scenarios),
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
