"""Scenario generation, cooperation-mode ablations, and Monte-Carlo SPEB
sweeps.

Trials are fully deterministic: every random draw derives from the master
seed plus the trial's own entropy, so results are independent of scheduling
and byte-reproducible. The joint mode runs through the carry-over recursion;
one audit trial per sweep cross-checks that path against direct
marginalization of the fully assembled matrix.
"""

import math
import os
import pickle
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import navinfo
from .blockfim import SingularBlockError
from .models import (
    GeometryError,
    MobilityModel,
    RangeModel,
    Scenario,
    ScenarioGeometry,
    VelocityModel,
    _check_intensity_triple,
    random_walks,
    within_radius,
)

# Entropy word mixed into the audit trial's seed so it never collides with a
# numbered trial.
_AUDIT_ENTROPY = 0xA0D17

# Fraction of failed trials beyond which a sweep refuses to report means.
FAILURE_BUDGET = 0.01

AUDIT_TOL = 1e-9

# Most trials per stacked step kernel and carry-over recursion; each of a
# sweep's workers holds one chunk at a time. A chunk's step matrices (ranging,
# anchor-only ranging, velocity) take 24 * CHUNK_TRIALS * T * (2 * Na)^2
# bytes, and the ranging kernel's agent x node blocks and their copy in
# summation order, its largest intermediates, 32 * CHUNK_TRIALS * T * Na *
# nodes bytes each.
CHUNK_TRIALS = 32


class ConfigError(ValueError):
    """Invalid scenario or sweep configuration."""


class SweepNumericalError(RuntimeError):
    """Too many trials failed numerically for the sweep to be trustworthy."""


class AuditError(RuntimeError):
    """The carry-over recursion disagreed with direct marginalization."""


class SweepWorkerError(RuntimeError):
    """A sweep worker process ended without sending its share's outcomes."""


class CoopMode(Enum):
    """Which cooperation ingredients enter the EFIM.

    SPATIAL_ONLY drops all velocity links. TEMPORAL_ONLY drops agent-agent
    ranging but keeps anchor links: without any absolute reference every
    bound is infinite and the curve is vacuous, so the ablated ingredient is
    inter-agent cooperation specifically. JOINT keeps everything.
    """

    SPATIAL_ONLY = "spatial_only"
    TEMPORAL_ONLY = "temporal_only"
    JOINT = "joint"


ALL_MODES = (CoopMode.SPATIAL_ONLY, CoopMode.TEMPORAL_ONLY, CoopMode.JOINT)
_MODE_RANK = {mode: i for i, mode in enumerate(ALL_MODES)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Random-scenario recipe.

    Agents start uniformly in `area` (meters) and follow a Gaussian random
    walk with per-step covariance `step_cov` (m^2, scalar means isotropic);
    anchors are placed uniformly and stay put. Intensities are in m^-2.
    `connectivity` is None for a fully measured network or a ranging radius
    in meters. The counts and `seed` are integers (not bools), `seed`
    non-negative, and the counts small enough that numpy can index the
    path array (nodes, T, 2).
    """

    area: tuple[float, float] = (20.0, 20.0)
    num_agents: int = 5
    num_anchors: int = 4
    num_steps: int = 20
    vel_along: float = 5.0
    vel_across: float = 5.0
    vel_couple: float = 0.0
    range_intensity: float = 5.0
    step_cov: float = 1.0
    connectivity: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("num_agents", "num_anchors", "num_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        reals = ("area", "step_cov", "vel_along", "vel_across", "vel_couple", "range_intensity")
        for name in reals:
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite")
        if len(self.area) != 2 or self.area[0] <= 0 or self.area[1] <= 0:
            raise ConfigError("area must be positive (width, height)")
        if self.num_agents < 0 or self.num_anchors < 0:
            raise ConfigError("node counts must be >= 0")
        if self.num_steps < 1:
            raise ConfigError("num_steps must be >= 1")
        # the bytes of the path array (nodes, T, 2) must fit numpy's index type
        nodes = int(self.num_agents) + int(self.num_anchors)
        if max(nodes, 1) * int(self.num_steps) * 16 > np.iinfo(np.intp).max:
            raise ConfigError(
                f"{nodes} nodes over {self.num_steps} steps are too many for one array of paths"
            )
        if min(self.vel_along, self.vel_across, self.range_intensity) < 0:
            raise ConfigError("intensities must be >= 0")
        _check_intensity_triple(self.vel_along, self.vel_across, self.vel_couple, ConfigError)
        cov = self.step_cov_matrix()  # must be symmetric: `step_factor` factors its lower triangle
        if cov.shape != (2, 2) or (cov != cov.T).any() or np.linalg.eigvalsh(cov).min() <= 0:
            raise ConfigError("step_cov must be a positive scalar or a symmetric PD 2x2 matrix")
        if self.connectivity is not None and not 0 < self.connectivity < math.inf:
            raise ConfigError("connectivity radius must be positive and finite")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def step_cov_matrix(self) -> np.ndarray:
        if np.ndim(self.step_cov) == 0:
            return float(self.step_cov) * np.eye(2)
        return np.asarray(self.step_cov, dtype=float)

    @cached_property
    def step_factor(self) -> np.ndarray:
        """Lower Cholesky factor of `step_cov_matrix()`, factored once for
        every trial drawn from this config."""
        return np.linalg.cholesky(self.step_cov_matrix())


@dataclass(frozen=True)
class SpebRow:
    mode: str
    sweep_value: int
    mean_speb: float
    std_error: float
    trials: int


@dataclass
class SpebTable:
    rows: list[SpebRow] = field(default_factory=list)
    failed_trials: int = 0

    def sorted_rows(self) -> list[SpebRow]:
        rank = {mode.value: i for mode, i in _MODE_RANK.items()}
        return sorted(self.rows, key=lambda r: (rank.get(r.mode, 99), r.sweep_value))

    def lookup(self, mode: CoopMode, sweep_value: int) -> SpebRow:
        for row in self.rows:
            if row.mode == mode.value and row.sweep_value == sweep_value:
                return row
        raise KeyError((mode, sweep_value))


def _draw_paths(cfg: ScenarioConfig, extra_entropy: tuple[int, ...] = ()) -> np.ndarray:
    """Node paths (nodes, T, 2), agents first, of the trial with the given
    entropy. Draw order is fixed (anchors, agent starts, walk steps) so
    identical seeds give identical paths."""
    rng = np.random.default_rng([cfg.seed, *extra_entropy])
    anchors = rng.uniform((0.0, 0.0), cfg.area, size=(cfg.num_anchors, 2))
    agents = random_walks(rng, cfg.area, cfg.num_agents, cfg.num_steps, cfg.step_factor)
    return np.concatenate([agents, np.repeat(anchors[:, None, :], cfg.num_steps, axis=1)])


def generate_scenario(cfg: ScenarioConfig, extra_entropy: tuple[int, ...] = ()) -> Scenario:
    """`build_scenario` over the paths `_draw_paths` draws."""
    return build_scenario(cfg, _draw_paths(cfg, extra_entropy))


def build_scenario(cfg: ScenarioConfig, paths: np.ndarray) -> Scenario:
    """The scenario of `cfg` over node paths (nodes, T, 2), agents first:
    each step's measured pairs (k, j), k < j, in row-major order, and the
    configured range, velocity and mobility models.

    Its `weights` and `coeffs` are `_measurements` of the paths as a chunk
    of one, the sweeps' kernel inputs; they equal what `Scenario` resolves
    from the pair listing, which is not resolved again. The listing itself
    is made from the measured mask only when `pairs` is first read."""
    geometry = ScenarioGeometry(paths, cfg.num_agents)
    measured, weights, coeffs = (a[0] for a in _measurements(cfg, geometry.paths[None]))
    return Scenario._resolved(
        measured,
        weights,
        coeffs,
        geometry=geometry,
        range_model=RangeModel(intensity=cfg.range_intensity),
        velocity_model=VelocityModel(cfg.vel_along, cfg.vel_across, cfg.vel_couple),
        mobility=MobilityModel(cfg.step_cov_matrix()),
    )


def _recursion(
    s_full: np.ndarray, s_anchor: np.ndarray, k: np.ndarray, modes, horizons
) -> np.ndarray:
    """Final-step network SPEBs, shape (trials, modes, horizons, Na), from
    matrices stacked over trials: ranging (trials, T, 2Na, 2Na), anchor-only
    ranging alike, and velocity (trials, T-1, 2Na, 2Na). Row i holds the
    i-th of the sorted `horizons` (step counts in 1..T); the carry-over runs
    through every step up to the last of them, and `block_spebs` only at
    theirs. The modes that carry information over time share one stacked
    recursion."""
    trials, _, size = s_full.shape[:3]
    rows = {n - 1: row for row, n in enumerate(horizons)}
    sources = [s_anchor if mode is CoopMode.TEMPORAL_ONLY else s_full for mode in modes]
    carried = np.array([mode is not CoopMode.SPATIAL_ONLY for mode in modes])
    carry = np.zeros((trials, int(carried.sum()), size, size))
    out = np.empty((trials, len(modes), len(horizons), size // 2))
    for n in range(horizons[-1]):
        s_now = np.stack([source[:, n] for source in sources], axis=1)
        carrying = n > 0 and carried.any()
        if carrying:
            carry = navinfo.carry_over_step(k[:, None, n - 1], s_prev[:, carried], carry)
        if n in rows:
            totals = s_now.copy()
            if carrying:
                totals[:, carried] += carry
            out[:, :, rows[n]] = navinfo.block_spebs(totals)
        s_prev = s_now
    return out


class _Chunk(NamedTuple):
    """Trials of one shape, stacked for the step kernels: node paths
    (trials, nodes, T, 2), ranging intensities (trials, T, Na, nodes) with
    zeros for unmeasured pairs, and velocity intensities (trials, T-1, Na,
    3). A sweep draws no priors, so a chunk carries none."""

    paths: np.ndarray
    weights: np.ndarray
    coeffs: np.ndarray


def _measurements(cfg: ScenarioConfig, paths: np.ndarray):
    """Kernel inputs of node paths (trials, nodes, T, 2), agents first,
    under `cfg`, each read-only and broadcast over the axes it does not
    vary on: whether agent a ranges node p, (trials, T, Na, nodes), every
    node but the agent itself without a ranging radius; the ranging weights
    alike, zero where a pair is not measured; the velocity coeffs (trials,
    T-1, Na, 3)."""
    trials, nodes, t = paths.shape[:3]
    na = cfg.num_agents
    if cfg.connectivity is None:
        measured = np.arange(nodes) != np.arange(na)[:, None]
    else:
        measured = within_radius(paths, na, cfg.connectivity)
    # + 0.0 makes an intensity of -0.0 the 0.0 that summing a listing gives
    weights = np.where(measured, cfg.range_intensity + 0.0, 0.0)
    velocity = np.array((cfg.vel_along, cfg.vel_across, cfg.vel_couple), dtype=float)
    shape = (trials, t, na, nodes)
    return (
        np.broadcast_to(measured, shape),
        np.broadcast_to(weights, shape),
        np.broadcast_to(velocity, (trials, t - 1, na, 3)),
    )


def _drawn_chunk(cfg: ScenarioConfig, entropies) -> _Chunk:
    """The chunk of the trials drawn with the given entropy tuples: the
    kernel inputs of the scenarios `generate_scenario` would give, from the
    same `_measurements`, without building them."""
    paths = np.stack([_draw_paths(cfg, entropy) for entropy in entropies])
    _, weights, coeffs = _measurements(cfg, paths)
    return _Chunk(paths, weights, coeffs)


def _stacked_spebs(chunk: _Chunk, modes, horizons) -> list[dict[str, np.ndarray] | Exception]:
    """Per-trial SPEBs of `_recursion` for a chunk. A failure is charged to
    the trial it came from: a failing chunk is split in halves and each is
    run again, down to one-trial chunks, whose entry is their exception.
    The other trials' values do not change (the step kernels work
    elementwise across trials, and stacked numpy linear algebra is bitwise
    equal to per-matrix calls)."""
    try:
        s_full, s_anchor = navinfo._spatial_matrices(chunk.paths, chunk.weights, anchors=True)
        k = navinfo._temporal_matrices(chunk.paths, chunk.coeffs)
        spebs = _recursion(s_full, s_anchor, k, modes, horizons)
    except _TRIAL_FAILURES as exc:
        trials = len(chunk.paths)
        if trials == 1:
            return [exc]
        halves = (slice(None, trials // 2), slice(trials // 2, None))
        return [
            entry
            for part in halves
            for entry in _stacked_spebs(_Chunk(*(f[part] for f in chunk)), modes, horizons)
        ]
    return [{mode.value: trial[m] for m, mode in enumerate(modes)} for trial in spebs]


def _run_chunk(
    cfg: ScenarioConfig, entropies, modes, horizons
) -> list[dict[str, np.ndarray] | Exception]:
    """`_stacked_spebs` of the trials drawn with the given entropy tuples."""
    return _stacked_spebs(_drawn_chunk(cfg, entropies), modes, horizons)


def _audit_spebs(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Final-step SPEBs (horizons, Na) of `cfg`'s audit trial at every
    horizon, by the carry-over recursion and by dense marginalization of the
    joint EFIM over the horizon's steps. The trial is `cfg` cut to at most
    3 agents, 1..3 anchors and 4 steps, fully connected, drawn with the
    audit entropy as the sweeps draw their chunks; its ranging and velocity
    matrices are built once and serve both paths."""
    small = replace(
        cfg,
        num_agents=min(cfg.num_agents, 3),
        num_anchors=max(min(cfg.num_anchors, 3), 1),
        num_steps=min(cfg.num_steps, 4),
        connectivity=None,
    )
    chunk = _drawn_chunk(small, [(_AUDIT_ENTROPY,)])
    s = navinfo._spatial_matrices(chunk.paths, chunk.weights)
    k = navinfo._temporal_matrices(chunk.paths, chunk.coeffs)
    horizons = range(1, small.num_steps + 1)
    [[recursive]] = _recursion(s, s, k, (CoopMode.JOINT,), horizons)  # no anchor-only read
    finals = [
        navinfo._dense_marginal_efim(
            navinfo.JointEfim._from_layout(0, *navinfo._band_layout(s[0, :h], k[0, : h - 1])),
            {(agent, h - 1) for agent in range(small.num_agents)},
        ).matrix
        for h in horizons
    ]
    return recursive, navinfo.block_spebs(np.stack(finals))


def _audit_recursion(cfg: ScenarioConfig) -> None:
    """Check recursion-vs-marginalization agreement on one small joint trial.

    The reference is the dense Schur complement, never `marginal_efim`'s
    block-tridiagonal sweep, which is the recursion itself."""
    if cfg.num_agents == 0:
        return
    try:
        recursive, direct = _audit_spebs(cfg)
    except _TRIAL_FAILURES as exc:
        raise AuditError(
            f"audit trial failed (seed={cfg.seed}, entropy={_AUDIT_ENTROPY:#x}): {exc}"
        ) from exc
    # Both paths report +inf for an unobservable agent (one anchor leaves the
    # rotation about it unobserved); the other bounds must be finite and
    # agree. Zeros stand in for the +inf bounds, so no inf - inf is taken.
    unbounded = np.isposinf(direct)
    differ = (unbounded != np.isposinf(recursive)).any(axis=1)
    direct, recursive = np.where(unbounded, 0.0, direct), np.where(unbounded, 0.0, recursive)
    rel = np.abs(direct - recursive) / np.maximum(np.abs(direct), 1e-30)
    failing = differ | ~(rel < AUDIT_TOL).all(axis=1)
    if failing.any():
        row = int(failing.argmax())
        detail = "+inf bounds differ" if differ[row] else f"rel={rel[row].max():.3e}"
        raise AuditError(
            f"carry-over recursion disagrees with marginalization "
            f"(seed={cfg.seed}, horizon={row + 1}, {detail})"
        )


def _aggregate(values: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over trials; any non-finite trial makes the
    mean infinite and the error undefined. `stacked[:, finite]` comes out
    column-major, so numpy sums each column pairwise on its own: a column's
    result does not depend on how many others there are."""
    stacked = np.stack(values)
    n = stacked.shape[0]
    finite = np.isfinite(stacked).all(axis=0)
    mean = np.full(stacked.shape[1:], np.inf)
    err = np.full(stacked.shape[1:], np.nan)
    if finite.any():
        sub = stacked[:, finite]
        mean[finite] = sub.mean(axis=0)
        err[finite] = sub.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return mean, err


_TRIAL_FAILURES = (np.linalg.LinAlgError, GeometryError, SingularBlockError)


def check_trials(trials: int) -> None:
    """ConfigError unless a sweep's trial count is at least 1."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")


def _check_unique(what: str, values) -> None:
    """ConfigError if one of a sweep's values repeats: its rows would be
    written twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{what} {value!r} is repeated")


def _check_modes(modes) -> None:
    _check_unique("mode", [mode.value for mode in modes])


def _chunk_means(cfg, entropies, modes, horizons):
    """`_run_chunk`'s trials, each its exception or, per mode, the network-average
    SPEB per step; a chunk keeps no SPEB array of its trials."""
    return [
        r if isinstance(r, Exception) else {mode: s.mean(axis=1) for mode, s in r.items()}
        for r in _run_chunk(cfg, entropies, modes, horizons)
    ]


def _run_shares(calls, shares) -> dict:
    """Outcomes (value or exception) by call index, each share's up to its first
    exception: the first share's from here, the others' from forked workers."""

    def run(share):
        for i in share:
            try:
                yield i, calls[i]()
            except Exception as exc:  # raised by _sweep, in sweep order
                yield i, exc
                return

    children, received = {}, {}
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            if not (pid := os.fork()):  # the worker: it never returns into the caller's stack
                try:
                    try:
                        data = pickle.dumps(dict(run(share)))
                    except Exception as exc:  # an outcome that cannot be pickled
                        data = pickle.dumps({share[0]: SweepWorkerError(f"sweep worker: {exc}")})
                    os.write(write_end, data)  # whole: a blocking pipe write
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children[pid] = read_end
        outcomes = dict(run(shares[0]))
        for pid, read_end in children.items():  # every pipe to its end before any worker is reaped
            with open(read_end, "rb", closefd=False) as pipe:
                received[pid] = pipe.read()
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, 9)  # SIGKILL ends an interrupted sweep's workers; the others are done
        codes = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children}
    for pid, code in codes.items():
        try:
            outcomes.update(pickle.loads(received[pid]))
        except Exception:  # cut short: the worker ended before it sent everything
            end = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise SweepWorkerError(f"sweep worker {pid} was lost ({end})") from None
    return outcomes


def _sweep(cfg, points, modes, trials: int, horizons):
    """Per-trial `_chunk_means` at the sorted `horizons` of each sweep point
    (config, entropy prefix), in trial order, and the failed-trial count.

    Chunks of at most CHUNK_TRIALS and ceil(trials x points / workers) trials
    go costliest (agents x steps x trials) first to the least-loaded of one
    worker per CPU, then `cfg`'s audit. Raised in order: a lost worker; the
    first chunk exception in sweep order; SweepNumericalError beyond
    FAILURE_BUDGET ("failed/attempted trials failed", attempted being trials
    x points); the audit's error.
    """
    check_trials(trials)
    _check_modes(modes)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = min(CHUNK_TRIALS, -(-trials * max(len(points), 1) // workers))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    tasks = [(p, chunk) for p in range(len(points)) for chunk in chunks]
    calls = [
        partial(_chunk_means, points[p][0], [(*points[p][1], t) for t in chunk], modes, horizons)
        for p, chunk in tasks
    ] + [partial(_audit_recursion, cfg)]
    weights = [points[p][0].num_agents * points[p][0].num_steps * len(c) for p, c in tasks] + [0]
    shares, loads = [[] for _ in range(workers)], [0] * workers
    for i in sorted(range(len(calls)), key=weights.__getitem__, reverse=True):  # the audit last
        least = loads.index(min(loads))
        shares[least].append(i)
        loads[least] += weights[i]
    outcomes = _run_shares(calls, [share for share in shares if share])
    results = [[] for _ in points]
    for i, (p, _) in enumerate(tasks):  # in sweep order, so the first chunk exception is raised
        if isinstance(outcomes.get(i), BaseException):
            raise outcomes[i]
        results[p] += outcomes.get(i) or ()
    failed = sum(isinstance(r, Exception) for per_point in results for r in per_point)
    attempted = trials * len(points)
    if failed > FAILURE_BUDGET * attempted:
        raise SweepNumericalError(
            f"{failed}/{attempted} trials failed numerically (seed={cfg.seed})"
        )
    if isinstance(outcomes.get(len(tasks)), BaseException):
        raise outcomes[len(tasks)]
    return results, failed


def _mode_means(results, modes):
    """Per mode: (mode, mean, standard error, trials) per horizon over the trials not failed."""
    for mode in modes:
        values = [r[mode.value] for r in results if not isinstance(r, Exception)]
        if values:
            yield (mode.value, *_aggregate(values), len(values))


def sweep_time(cfg: ScenarioConfig, steps=None, modes=ALL_MODES, trials: int = 500) -> SpebTable:
    """Network-average SPEB at the final step, per horizon length and mode.

    One trajectory serves every horizon: the carry-over state after n steps
    is exactly the marginalized history of the n-step problem, so each trial
    yields the whole curve in a single pass, bounded at the requested steps
    only.
    """
    step_list = list(steps) if steps is not None else list(range(1, cfg.num_steps + 1))
    if not step_list or min(step_list) < 1 or max(step_list) > cfg.num_steps:
        raise ConfigError("step counts must fall in 1..num_steps")
    _check_unique("step count", step_list)
    horizons = sorted(step_list)
    points = [(cfg, ())] if cfg.num_agents else []
    per_point, failed = _sweep(cfg, points, modes, trials, horizons)
    row = {v: i for i, v in enumerate(horizons)}
    table = SpebTable(failed_trials=failed)
    for mode, mean, se, n in _mode_means(sum(per_point, []), modes):
        table.rows += [
            SpebRow(mode, v, float(mean[row[v]]), float(se[row[v]]), n) for v in step_list
        ]
    return table


def sweep_nodes(cfg: ScenarioConfig, agent_counts, modes=ALL_MODES, trials: int = 500) -> SpebTable:
    """Network-average SPEB at the final step of a fixed horizon, per agent
    count and mode."""
    counts = list(agent_counts)
    if not counts or min(counts) < 1:
        raise ConfigError("agent counts must be >= 1")
    _check_unique("agent count", counts)
    points = [(replace(cfg, num_agents=count), (count,)) for count in counts]
    per_point, failed = _sweep(cfg, points, modes, trials, (cfg.num_steps,))
    table = SpebTable(failed_trials=failed)
    for count, results in zip(counts, per_point):
        for mode, mean, err, n in _mode_means(results, modes):
            table.rows.append(SpebRow(mode, count, float(mean[0]), float(err[0]), n))
    return table


def format_value(x: float) -> str:
    return format(x, ".17g")


def persist(table: SpebTable, path) -> None:
    """Write the sweep table as CSV, atomically, in a bit-stable order."""
    lines = ["mode,sweep_value,mean_speb_m2,std_error_m2,trials"]
    for row in table.sorted_rows():
        lines.append(
            f"{row.mode},{row.sweep_value},{format_value(row.mean_speb)},"
            f"{format_value(row.std_error)},{row.trials}"
        )
    write_atomic(path, "\n".join(lines) + "\n")


def write_atomic(path, text: str) -> None:
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass  # never created, or not removable: report the first error
        raise OSError(f"cannot write {path}: {exc}") from exc
