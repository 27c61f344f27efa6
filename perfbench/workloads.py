"""The benchmark's workloads: what one timed call does and how its output
is checked.

Every call goes through navlim's public surface, looked up at call time so
that tracing wrappers installed on the modules are seen: the sweeps through
`navlim.cli.main` with the argv a user would type, the dense bound through
the `navlim` package functions. The workload seed reaches navlim only as
`--seed` or `ScenarioConfig.seed`.
"""

import contextlib
import csv
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import navlim
import navlim.cli

from . import metrics

# Seeds the benchmark ships with; each has recorded sweep CSV digests.
DEFAULT_SEED = 7
HOLDOUT_SEED = 1112
DIGESTS = Path(__file__).with_name("digests.json")

# Relative agreement required between a bound and its independent
# recomputation through the public per-step API.
BOUND_RTOL = 1e-9

# Smallest eigenvalue, after scaling to unit diagonal, of the ranging
# information summed over a dense-bound scenario's steps for the scenario to
# count as observable. Singular scenarios sit at round-off (1e-16); the least
# observable ones kept sit near 1e-3.
OBSERVABLE_MIN_EIG = 1e-8

MODES = ("spatial_only", "temporal_only", "joint")
CSV_HEADER = "mode,sweep_value,mean_speb_m2,std_error_m2,trials"


@dataclass
class CallResult:
    seconds: float
    ops: int
    failed: int
    output: bytes  # what traced and untraced calls must agree on, byte for byte
    error: str | None = None
    speed: float = 1.0  # calibration factor to reference speed, set by the caller

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.speed


@dataclass(frozen=True)
class SweepWorkload:
    """One `navlim sweep-*` command per call; an op is one Monte-Carlo
    trial, or one (agent count, trial) pair for the node sweep."""

    name: str
    why: str
    subcommand: str
    shape: tuple[str, ...]
    trials: int
    sweep_values: tuple[int, ...]
    fixed_agents: int | None
    num_steps: int

    @property
    def ops_per_call(self) -> int:
        return self.trials * (1 if self.fixed_agents is not None else len(self.sweep_values))

    def argv(self, seed: int, out_dir: str) -> list[str]:
        return [
            self.subcommand,
            *self.shape,
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--out-dir", out_dir,
            "--emit", "csv",
        ]

    def digest_argv(self, seed: int) -> list[str]:
        """The argv without its output directory, as digests record it."""
        return self.argv(seed, "OUT")

    def call(self, seed: int, index: int, out_dir: str) -> CallResult:
        """Every call of a seed runs the same command; `index` is unused."""
        argv = self.argv(seed, out_dir)
        stdout = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = navlim.cli.main(argv)
        seconds = time.perf_counter() - started
        ops = self.ops_per_call
        if code != 0:
            return CallResult(seconds, ops, ops, b"", f"exit code {code}")
        failed = metrics.failed_trials(stdout.getvalue())
        if failed is None:
            return CallResult(seconds, ops, ops, b"", "no failed-trials line on stdout")
        stem = self.subcommand.replace("-", "_")
        with open(os.path.join(out_dir, f"{stem}.csv"), "rb") as fh:
            data = fh.read()
        return CallResult(seconds, ops, failed, data)

    def scenario_config(self, seed: int):
        return navlim.ScenarioConfig(
            num_agents=self.fixed_agents or max(self.sweep_values),
            num_anchors=4,
            num_steps=self.num_steps,
            seed=seed,
        )

    def reference_checks(self, seed: int, out_dir: str) -> list[str]:
        """Untimed calls at the shipped seeds, whose CSVs must match the
        recorded digests byte for byte; they also warm up the process."""
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        csv_by_seed, argv_by_seed, problems = {}, {}, []
        for shipped in (DEFAULT_SEED, HOLDOUT_SEED):
            result = self.call(shipped, 0, out_dir)
            if result.error:
                problems.append(f"{self.name} seed {shipped}: {result.error}")
                continue
            csv_by_seed[shipped] = result.output
            argv_by_seed[shipped] = self.digest_argv(shipped)
        return problems + metrics.digest_mismatches(recorded, self.name, argv_by_seed, csv_by_seed)

    def check(self, seed: int, results: list[CallResult]) -> list[str]:
        """All CSVs of the run must be identical, and each must match the
        sweep recomputed independently."""
        problems = call_errors(results)
        distinct = {r.output for r in results if not r.error}
        if len(distinct) > 1:
            problems.append(f"{len(distinct)} different CSVs from identical sweep commands")
        for data in distinct:
            problems += self.check_csv(seed, data)
        return problems

    def check_csv(self, seed: int, data: bytes) -> list[str]:
        """Compare a sweep CSV with the same sweep recomputed trial by trial
        through the public per-step API (relative tolerance BOUND_RTOL)."""
        lines = data.decode().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            return [f"{self.name}: bad CSV header"]
        rows = list(csv.reader(lines[1:]))
        expected_keys = [(m, v) for m in MODES for v in self.sweep_values]
        if [(r[0], int(r[1])) for r in rows] != expected_keys:
            return [f"{self.name}: CSV rows are not {len(expected_keys)} (mode, value) rows in order"]
        per_value = self._independent_means(seed)
        problems = []
        for (mode, value), row in zip(expected_keys, rows):
            samples = per_value[mode][value]
            mean, err = _aggregate(samples)
            got_mean, got_err, got_trials = float(row[2]), float(row[3]), int(row[4])
            if got_trials != len(samples):
                problems.append(f"{self.name} {mode} {value}: {got_trials} trials != {len(samples)}")
            if not _close(got_mean, mean, abs(mean)):
                problems.append(f"{self.name} {mode} {value}: mean {got_mean!r} vs {mean!r}")
            if not _close(got_err, err, abs(mean)):
                problems.append(f"{self.name} {mode} {value}: std error {got_err!r} vs {err!r}")
        return problems

    def _independent_means(self, seed: int) -> dict[str, dict[int, list[float]]]:
        cfg = self.scenario_config(seed)
        out = {m: {v: [] for v in self.sweep_values} for m in MODES}
        for trial in range(self.trials):
            if self.fixed_agents is not None:
                scenario = navlim.generate_scenario(cfg, (trial,))
                for mode in MODES:
                    spebs = recursion_spebs(scenario, mode)
                    for value in self.sweep_values:
                        out[mode][value].append(float(spebs[value - 1].mean()))
            else:
                for count in self.sweep_values:
                    scenario = navlim.generate_scenario(replace(cfg, num_agents=count), (count, trial))
                    for mode in MODES:
                        out[mode][count].append(float(recursion_spebs(scenario, mode)[-1].mean()))
        return out


@dataclass(frozen=True)
class DenseBoundWorkload:
    """One scenario bound per call, through the dense joint EFIM.

    Op `index` of a seed bounds the index-th observable scenario (seed, m),
    m = 0, 1, ...; scenarios with an unobservable agent are skipped, untimed,
    because navlim's two bound paths disagree on them (see `observable`)."""

    name: str
    why: str
    num_agents: int
    num_anchors: int
    num_steps: int
    radius: float
    ops_per_call: int = 1
    # seed -> (observable scenario numbers so far, skipped ones)
    _picked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def scenario_config(self, seed: int):
        return navlim.ScenarioConfig(
            num_agents=self.num_agents,
            num_anchors=self.num_anchors,
            num_steps=self.num_steps,
            connectivity=self.radius,
            seed=seed,
        )

    @staticmethod
    def observable(scenario) -> bool:
        """Whether every agent's positions are determined by the scenario.

        The velocity blocks tie each agent's positions to one another, so the
        joint EFIM is singular exactly when a common shift of some agents'
        whole tracks costs no information: when the ranging information
        summed over all steps is singular. A radius graph makes that happen
        when an agent meets no node, or ranges along a single direction,
        over the whole horizon. On such scenarios navlim's dense path and its
        carry-over recursion disagree beyond round-off, on which bounds are
        +inf and on the finite ones, so no output check could pass there;
        the xfail test in test_perfbench.py reproduces two cases."""
        na, t = scenario.geometry.num_agents, scenario.geometry.num_steps
        if any(
            np.linalg.eigvalsh(block)[0] <= 0.0
            for n in range(1, t)
            for block in navlim.temporal_step_blocks(scenario, n)
        ):
            return False
        summed = sum(navlim.spatial_step_matrix(scenario, n) for n in range(t))
        diag = np.diag(summed)
        if not (diag > 0.0).all():
            return False
        scale = np.sqrt(diag)
        return bool(np.linalg.eigvalsh(summed / scale[:, None] / scale[None, :])[0] > OBSERVABLE_MIN_EIG)

    def scenario_number(self, seed: int, index: int) -> int:
        """Number of the scenario op `index` bounds; picks new ones lazily."""
        picked, skipped = self._picked.setdefault(seed, ([], []))
        cfg = self.scenario_config(seed)
        while len(picked) <= index:
            number = len(picked) + len(skipped)
            observable = self.observable(navlim.generate_scenario(cfg, (number,)))
            (picked if observable else skipped).append(number)
        return picked[index]

    def skipped(self, seed: int) -> list[int]:
        return self._picked.get(seed, ([], []))[1]

    def bound(self, scenario) -> np.ndarray:
        """Final-step bounds of every agent, then the smoothed mid-step bound
        of agent 0."""
        last, mid = self.num_steps - 1, self.num_steps // 2
        joint = navlim.assemble_position_efim(scenario)
        final = navlim.marginal_efim(joint, [(k, last) for k in range(self.num_agents)])
        bounds = navlim.block_spebs(final.matrix)
        smoothed = navlim.speb(joint, 0, mid)
        return np.append(np.asarray(bounds, dtype=float), smoothed)

    def call(self, seed: int, index: int, out_dir: str) -> CallResult:
        """Op `index` bounds one observable scenario; `out_dir` is unused."""
        number = self.scenario_number(seed, index)
        cfg = self.scenario_config(seed)
        started = time.perf_counter()
        try:
            output = self.bound(navlim.generate_scenario(cfg, (number,)))
        except Exception:  # a failed op is counted and reported, not fatal
            seconds = time.perf_counter() - started
            return CallResult(seconds, 1, 1, b"", traceback.format_exc(limit=3))
        seconds = time.perf_counter() - started
        return CallResult(seconds, 1, 0, output.tobytes())

    def reference_checks(self, seed: int, out_dir: str) -> list[str]:
        """One untimed call that warms up lazy initialisation."""
        return call_errors([self.call(seed, 0, out_dir)])

    def check(self, seed: int, results: list[CallResult]) -> list[str]:
        problems = call_errors(results)
        for index, result in enumerate(results):
            if not result.error:
                problems += self.check_op(seed, self.scenario_number(seed, index), result.output)
        return problems

    def check_op(self, seed: int, number: int, output: bytes) -> list[str]:
        """Final-step bounds of scenario (seed, number) against the
        carry-over recursion run forward from the public step blocks (same
        +inf positions, finite values within BOUND_RTOL), and the smoothed
        mid-step bound of agent 0 against the causal one, which may not be
        smaller."""
        values = np.frombuffer(output, dtype=float)
        dense, smoothed = values[:-1], float(values[-1])
        scenario = navlim.generate_scenario(self.scenario_config(seed), (number,))
        causal = recursion_spebs(scenario, "joint")
        reference = causal[-1]
        where = f"{self.name} seed {seed} scenario {number}"
        problems = []
        if dense.shape != reference.shape:
            return [f"{where}: {dense.size} final bounds, expected {reference.size}"]
        if not np.array_equal(np.isposinf(dense), np.isposinf(reference)):
            problems.append(f"{where}: +inf positions differ: {dense} vs {reference}")
        finite = np.isfinite(reference) & np.isfinite(dense)
        for got, want in zip(dense[finite].tolist(), reference[finite].tolist()):
            if not _close(got, want, abs(want)):
                problems.append(f"{where}: final bound {got!r} vs recursion {want!r}")
        causal_mid = float(causal[self.num_steps // 2][0])
        if not smoothed <= causal_mid * (1 + BOUND_RTOL):
            problems.append(f"{where}: smoothed mid-step bound {smoothed!r} > causal {causal_mid!r}")
        return problems


def recursion_spebs(scenario, mode: str) -> np.ndarray:
    """Per-step, per-agent SPEBs of one cooperation mode, from the carry-over
    recursion over `spatial_step_matrix` / `temporal_step_blocks`; row n is
    the final-step bound of the horizon n+1."""
    na, t = scenario.geometry.num_agents, scenario.geometry.num_steps
    if mode == "temporal_only":
        anchor_pairs = tuple(tuple(p for p in step if p[1] >= na) for step in scenario.pairs)
        scenario = replace(scenario, pairs=anchor_pairs)
    s = [navlim.spatial_step_matrix(scenario, n) for n in range(t)]
    carry = np.zeros((2 * na, 2 * na))
    out = np.empty((t, na))
    for n in range(t):
        if n > 0 and mode != "spatial_only":
            k_full = navlim.block_diag(navlim.temporal_step_blocks(scenario, n))
            carry = navlim.carry_over_step(k_full, s[n - 1], carry)
        out[n] = navlim.block_spebs(s[n] + carry)
    return out


def call_errors(results: list[CallResult]) -> list[str]:
    return [f"call {i}: {r.error}" for i, r in enumerate(results) if r.error]


def _aggregate(samples: list[float]) -> tuple[float, float]:
    """Mean and standard error; a non-finite sample makes the mean +inf and
    the error NaN, as the sweep CSV reports them."""
    arr = np.asarray(samples)
    if not np.isfinite(arr).all():
        return math.inf, math.nan
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def _close(got: float, want: float, scale: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return (math.isnan(got) and math.isnan(want)) or got == want
    return abs(got - want) <= BOUND_RTOL * max(scale, abs(want))


SWEEP_TIME = SweepWorkload(
    name="sweep-time",
    why=(
        "Long carry-over recursion over 10x10 matrices: per-call Python overhead "
        "in carry_over_step, block_spebs and eliminate_block, almost no dense or models work."
    ),
    subcommand="sweep-time",
    shape=("--agents", "5", "--anchors", "4", "--steps", "1..20", "--modes", "all"),
    trials=25,
    sweep_values=tuple(range(1, 21)),
    fixed_agents=5,
    num_steps=20,
)

SWEEP_NODES = SweepWorkload(
    name="sweep-nodes",
    why=(
        "Matrices grow to 24x24 and pair lists as Na^2; block_spebs runs at every "
        "step though only the last is used, a waste sweep-time does not show."
    ),
    subcommand="sweep-nodes",
    shape=("--agents", "2..12", "--anchors", "4", "--steps", "10", "--modes", "all"),
    trials=5,
    sweep_values=tuple(range(2, 13)),
    fixed_agents=None,
    num_steps=10,
)

DENSE_BOUND = DenseBoundWorkload(
    name="dense-bound",
    why=(
        "One dense reduction of a 960-dim joint EFIM per op (radius pairs vary per step): "
        "O((Na*T)^3) eigh in schur_complement and speb, the path the sweeps skip."
    ),
    num_agents=12,
    num_anchors=4,
    num_steps=40,
    radius=10.0,
)

WORKLOADS = {w.name: w for w in (SWEEP_TIME, SWEEP_NODES, DENSE_BOUND)}
