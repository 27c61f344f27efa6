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
    full_pairs,
    radius_pairs,
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
    in meters. `seed` is a non-negative integer.
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
        if min(self.vel_along, self.vel_across, self.range_intensity) < 0:
            raise ConfigError("intensities must be >= 0")
        if self.vel_along * self.vel_across - self.vel_couple**2 < 0:
            raise ConfigError("velocity intensity triple must be PSD")
        cov = self.step_cov_matrix()
        if cov.shape != (2, 2) or np.linalg.eigvalsh(cov).min() <= 0:
            raise ConfigError("step_cov must be a positive scalar or a PD 2x2 matrix")
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
    full or radius pairs, the configured range, velocity and mobility
    models."""
    geometry = ScenarioGeometry(paths, cfg.num_agents)
    if cfg.connectivity is None:
        pairs = full_pairs(geometry)
    else:
        pairs = radius_pairs(geometry, cfg.connectivity)
    return Scenario(
        geometry=geometry,
        pairs=pairs,
        range_model=RangeModel(intensity=cfg.range_intensity),
        velocity_model=VelocityModel(cfg.vel_along, cfg.vel_across, cfg.vel_couple),
        mobility=MobilityModel(cfg.step_cov_matrix()),
    )


def _recursion(
    s_full: np.ndarray, s_anchor: np.ndarray, k: np.ndarray, modes, final_only: bool
) -> np.ndarray:
    """Final-step network SPEBs, shape (trials, modes, horizons, Na), from
    matrices stacked over trials: ranging (trials, T, 2Na, 2Na), anchor-only
    ranging alike, and velocity (trials, T-1, 2Na, 2Na). Row n holds the
    horizon n+1; with `final_only`, one row for the full horizon T (the
    carry-over still runs through every step). The modes that carry
    information over time share one stacked recursion."""
    trials, t, size = s_full.shape[:3]
    first = t - 1 if final_only else 0
    sources = [s_anchor if mode is CoopMode.TEMPORAL_ONLY else s_full for mode in modes]
    carried = np.array([mode is not CoopMode.SPATIAL_ONLY for mode in modes])
    carry = np.zeros((trials, int(carried.sum()), size, size))
    out = np.empty((trials, len(modes), t - first, size // 2))
    for n in range(t):
        s_now = np.stack([source[:, n] for source in sources], axis=1)
        carrying = n > 0 and carried.any()
        if carrying:
            carry = navinfo.carry_over_step(k[:, None, n - 1], s_prev[:, carried], carry)
        if n >= first:
            totals = s_now.copy()
            if carrying:
                totals[:, carried] += carry
            out[:, :, n - first] = navinfo.block_spebs(totals)
        s_prev = s_now
    return out


class _Chunk(NamedTuple):
    """Trials of one shape, stacked for the step kernels: node paths
    (trials, nodes, T, 2), ranging intensities (trials, T, Na, nodes) with
    zeros for unmeasured pairs, velocity intensities (trials, T-1, Na, 3),
    and each trial's priors."""

    paths: np.ndarray
    weights: np.ndarray
    coeffs: np.ndarray
    priors: tuple

    def without(self, positions) -> "_Chunk":
        keep = np.delete(np.arange(len(self.paths)), positions)
        return _Chunk(
            self.paths[keep],
            self.weights[keep],
            self.coeffs[keep],
            tuple(self.priors[i] for i in keep),
        )


def _scenario_chunk(scenarios: list[Scenario]) -> _Chunk:
    """The chunk of scenarios of equal shape."""
    return _Chunk(
        np.stack([s.geometry.paths for s in scenarios]),
        np.stack([s.weights for s in scenarios]),
        np.stack([s.coeffs for s in scenarios]),
        tuple(s.priors for s in scenarios),
    )


def _drawn_chunk(cfg: ScenarioConfig, entropies) -> _Chunk:
    """The chunk of the trials drawn with the given entropy tuples: the
    scenarios `generate_scenario` would give, without building them."""
    paths = np.stack([_draw_paths(cfg, entropy) for entropy in entropies])
    na, t = cfg.num_agents, cfg.num_steps
    if cfg.connectivity is None:
        measured = np.arange(paths.shape[1]) != np.arange(na)[:, None]
    else:
        measured = within_radius(paths, na, cfg.connectivity)
    weights = np.where(measured, cfg.range_intensity, 0.0)
    trials = len(paths)
    return _Chunk(
        paths,
        np.broadcast_to(weights, (trials, t, *weights.shape[-2:])),
        np.broadcast_to((cfg.vel_along, cfg.vel_across, cfg.vel_couple), (trials, t - 1, na, 3)),
        ((),) * trials,
    )


def _stacked_spebs(
    chunk: _Chunk, modes, final_only: bool = False
) -> list[dict[str, np.ndarray] | Exception]:
    """Per-trial SPEBs of `_recursion` for a chunk. A failure is charged to
    the trial it came from: its entry is the exception, and the others are
    recomputed without it, which leaves their values unchanged (the step
    kernels work elementwise across trials, and stacked numpy linear
    algebra is bitwise equal to per-matrix calls)."""
    results: list = [None] * len(chunk.paths)
    live = list(range(len(results)))
    while live:
        try:
            s_full, s_anchor = navinfo._spatial_matrices(
                chunk.paths, chunk.weights, priors=chunk.priors, anchors=True
            )
            k = navinfo._temporal_matrices(chunk.paths, chunk.coeffs)
            spebs = _recursion(s_full, s_anchor, k, modes, final_only)
        except _TRIAL_FAILURES as exc:
            # every failure of the kernels and the recursion names its trials
            dropped = sorted({member[0] for member in exc.members})
            for pos in reversed(dropped):
                results[live.pop(pos)] = exc
            chunk = chunk.without(dropped)
            continue
        for pos, i in enumerate(live):
            results[i] = {mode.value: spebs[pos, m] for m, mode in enumerate(modes)}
        break
    return results


def _trial_spebs(scenario: Scenario, modes, final_only: bool = False) -> dict[str, np.ndarray]:
    """`_stacked_spebs` of one scenario; a failure raises."""
    [result] = _stacked_spebs(_scenario_chunk([scenario]), modes, final_only)
    if isinstance(result, Exception):
        raise result
    return result


def _run_chunk(
    cfg: ScenarioConfig, entropies, modes, final_only: bool = False
) -> list[dict[str, np.ndarray] | Exception]:
    """`_stacked_spebs` of the trials drawn with the given entropy tuples."""
    return _stacked_spebs(_drawn_chunk(cfg, entropies), modes, final_only)


def _truncated(scenario: Scenario, num_steps: int) -> Scenario:
    geometry = ScenarioGeometry(
        scenario.geometry.paths[:, :num_steps], scenario.geometry.num_agents
    )
    return replace(scenario, geometry=geometry, pairs=scenario.pairs[:num_steps])


def _audit_recursion(cfg: ScenarioConfig) -> None:
    """Check recursion-vs-marginalization agreement on one small joint trial.

    The reference is the dense Schur complement, never `marginal_efim`'s
    block-tridiagonal sweep, which is the recursion itself."""
    if cfg.num_agents == 0:
        return
    small = replace(
        cfg,
        num_agents=min(cfg.num_agents, 3),
        num_anchors=max(min(cfg.num_anchors, 3), 1),
        num_steps=min(cfg.num_steps, 4),
        connectivity=None,
    )
    scenario = generate_scenario(small, (_AUDIT_ENTROPY,))
    try:
        spebs = _trial_spebs(scenario, (CoopMode.JOINT,))[CoopMode.JOINT.value]
        dense = [_dense_final_spebs(scenario, h) for h in range(1, small.num_steps + 1)]
    except _TRIAL_FAILURES as exc:
        raise AuditError(
            f"audit trial failed (seed={cfg.seed}, entropy={_AUDIT_ENTROPY:#x}): {exc}"
        ) from exc
    for horizon, (direct, recursive) in enumerate(zip(dense, spebs), start=1):
        # Both paths report +inf for an unobservable agent (one anchor leaves
        # the rotation about it unobserved); the other bounds must be finite
        # and agree.
        unbounded = np.isposinf(direct)
        if not np.array_equal(unbounded, np.isposinf(recursive)):
            raise AuditError(
                f"carry-over recursion disagrees with marginalization "
                f"(seed={cfg.seed}, horizon={horizon}, +inf bounds differ)"
            )
        direct, recursive = direct[~unbounded], recursive[~unbounded]
        rel = np.abs(direct - recursive) / np.maximum(np.abs(direct), 1e-30)
        if not (rel < AUDIT_TOL).all():
            raise AuditError(
                f"carry-over recursion disagrees with marginalization "
                f"(seed={cfg.seed}, horizon={horizon}, rel={rel.max():.3e})"
            )


def _dense_final_spebs(scenario: Scenario, horizon: int) -> np.ndarray:
    """Final-step SPEBs of the scenario's first `horizon` steps by dense
    marginalization of the assembled joint EFIM."""
    full = navinfo.assemble_position_efim(_truncated(scenario, horizon))
    na = scenario.geometry.num_agents
    final = navinfo._dense_marginal_efim(full, {(k, horizon - 1) for k in range(na)})
    return navinfo.block_spebs(final.matrix)


def _aggregate(values: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over trials; any non-finite trial makes the
    mean infinite and the error undefined."""
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


def _chunk_means(cfg, entropies, modes, final_only):
    """`_run_chunk`'s trials, each its exception or, per mode, the network-average
    SPEB per step; a chunk keeps no SPEB array of its trials."""
    return [
        r if isinstance(r, Exception) else {mode: s.mean(axis=1) for mode, s in r.items()}
        for r in _run_chunk(cfg, entropies, modes, final_only)
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


def _sweep(cfg, points, modes, trials: int, final_only=False, denominator=None):
    """Per-trial `_chunk_means` of each sweep point (config, entropy prefix),
    in trial order, and the failed-trial count.

    Chunks of at most CHUNK_TRIALS and ceil(trials x points / workers) trials
    go costliest (agents x steps x trials) first to the least-loaded of one
    worker per CPU, then `cfg`'s audit. Raised in order: a lost worker; the
    first chunk exception in sweep order; SweepNumericalError beyond
    FAILURE_BUDGET ("failed/denominator trials failed", or "failed trials
    failed" without a denominator); the audit's error.
    """
    check_trials(trials)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    size = min(CHUNK_TRIALS, -(-trials * max(len(points), 1) // workers))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    tasks = [(p, chunk) for p in range(len(points)) for chunk in chunks]
    calls = [
        partial(_chunk_means, points[p][0], [(*points[p][1], t) for t in chunk], modes, final_only)
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
    if failed > FAILURE_BUDGET * trials * len(points):
        shown = f"{failed}/{denominator}" if denominator else failed
        raise SweepNumericalError(f"{shown} trials failed numerically (seed={cfg.seed})")
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

    One trajectory of cfg.num_steps serves every horizon: the carry-over
    state after n steps is exactly the marginalized history of the n-step
    problem, so each trial yields the whole curve in a single pass.
    """
    step_list = list(steps) if steps is not None else list(range(1, cfg.num_steps + 1))
    if not step_list or min(step_list) < 1 or max(step_list) > cfg.num_steps:
        raise ConfigError("step counts must fall in 1..num_steps")
    points = [(cfg, ())] if cfg.num_agents else []
    per_point, failed = _sweep(cfg, points, modes, trials, denominator=trials)
    table = SpebTable(failed_trials=failed)
    for mode, mean, se, n in _mode_means(sum(per_point, []), modes):
        table.rows += [SpebRow(mode, v, float(mean[v - 1]), float(se[v - 1]), n) for v in step_list]
    return table


def sweep_nodes(cfg: ScenarioConfig, agent_counts, modes=ALL_MODES, trials: int = 500) -> SpebTable:
    """Network-average SPEB at the final step of a fixed horizon, per agent
    count and mode."""
    counts = list(agent_counts)
    if not counts or min(counts) < 1:
        raise ConfigError("agent counts must be >= 1")
    points = [(replace(cfg, num_agents=count), (count,)) for count in counts]
    per_point, failed = _sweep(cfg, points, modes, trials, final_only=True)
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
