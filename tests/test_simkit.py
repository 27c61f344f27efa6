import copy
import hashlib
import json
import math
import os
import pickle
import signal
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import navlim.models as models
import navlim.simkit as simkit
from navlim.blockfim import block_diag
from navlim.cli import load_scenario
from navlim.models import GeometryError, RangeModel, Scenario, ScenarioGeometry, VelocityModel
from navlim.navinfo import (
    assemble_position_efim,
    block_spebs,
    carry_over_step,
    marginal_efim,
    spatial_step_matrix,
    temporal_step_blocks,
)
from navlim.simkit import (
    ALL_MODES,
    ConfigError,
    CoopMode,
    ScenarioConfig,
    SpebRow,
    SpebTable,
    SweepNumericalError,
    generate_scenario,
    persist,
    sweep_nodes,
    sweep_time,
)
from oracles import audit_spebs_by_rebuild, scenario_chunk, trial_spebs, truncated
from perfbench.workloads import DENSE_BOUND


def small_cfg(**kw):
    base = dict(num_agents=2, num_anchors=2, num_steps=3, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# configuration and generation


def test_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(area=(0.0, 10.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(num_agents=-1)
    with pytest.raises(ConfigError):
        ScenarioConfig(num_steps=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(vel_along=1.0, vel_across=1.0, vel_couple=2.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(step_cov=-1.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(connectivity=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_agents", 2.5),
        ("num_agents", True),
        ("num_anchors", 1.5),
        ("num_steps", 2.5),
        ("num_steps", True),
        ("seed", 1.5),
    ],
)
def test_config_rejects_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        ScenarioConfig(**{field: value})


def test_config_takes_numpy_integer_counts():
    counts = dict(num_agents=np.int64(2), num_anchors=np.int32(1), num_steps=np.uint8(3))
    cfg = ScenarioConfig(**counts, seed=np.int64(4))
    assert generate_scenario(cfg).geometry.paths.shape == (3, 3, 2)


@pytest.mark.parametrize(
    "counts",
    [
        dict(num_agents=2**62),
        dict(num_anchors=np.int64(2**62)),  # numpy arithmetic would wrap around
        dict(num_agents=0, num_anchors=0, num_steps=10**20),
        dict(num_agents=1, num_anchors=0, num_steps=(2**63 - 1) // 16 + 1),
    ],
)
def test_config_rejects_counts_no_path_array_can_hold(counts):
    with pytest.raises(ConfigError, match="too many for one array of paths"):
        ScenarioConfig(**counts)


def test_config_takes_the_largest_counts_a_path_array_can_hold():
    # nothing is allocated until a scenario is drawn
    ScenarioConfig(num_agents=1, num_anchors=0, num_steps=(2**63 - 1) // 16)


def test_config_takes_the_velocity_models_triple_rule():
    # along * across - couple^2 is -1 ulp here: round-off, PSD to VelocityModel
    triple = (0.18944723618090453, 5.278514588859416, 1.0)
    VelocityModel(*triple)
    ScenarioConfig(vel_along=triple[0], vel_across=triple[1], vel_couple=triple[2])
    with pytest.raises(ValueError, match="must be PSD"):
        VelocityModel(1.0, 1.0, 1.001)
    with pytest.raises(ConfigError, match="must be PSD"):
        ScenarioConfig(vel_along=1.0, vel_across=1.0, vel_couple=1.001)


def test_config_rejects_an_asymmetric_step_cov():
    with pytest.raises(ConfigError, match="symmetric PD 2x2"):
        ScenarioConfig(step_cov=np.array([[1.0, 0.9], [0.0, 1.0]]))
    ScenarioConfig(step_cov=np.array([[1.0, 0.9], [0.9, 1.0]]))


@pytest.mark.parametrize("sweep", [sweep_time, partial(sweep_nodes, agent_counts=[1, 2])])
def test_sweeps_reject_a_repeated_mode(sweep):
    with pytest.raises(ConfigError, match="mode 'joint' is repeated"):
        sweep(small_cfg(), modes=(CoopMode.JOINT, CoopMode.SPATIAL_ONLY, CoopMode.JOINT), trials=2)


def test_generate_scenario_deterministic():
    cfg = small_cfg()
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert a.geometry.paths.tobytes() == b.geometry.paths.tobytes()
    assert a.pairs == b.pairs


def test_generate_scenario_trial_entropy_differs():
    cfg = small_cfg()
    a = generate_scenario(cfg, (0,))
    b = generate_scenario(cfg, (1,))
    assert a.geometry.paths.tobytes() != b.geometry.paths.tobytes()


def test_generate_scenario_shapes():
    cfg = small_cfg(num_agents=3, num_anchors=2, num_steps=4)
    s = generate_scenario(cfg)
    assert s.geometry.paths.shape == (5, 4, 2)
    assert s.geometry.num_agents == 3
    # anchors do not move
    np.testing.assert_array_equal(s.geometry.paths[3, 0], s.geometry.paths[3, -1])


def test_generate_scenario_empty_agents():
    cfg = small_cfg(num_agents=0)
    s = generate_scenario(cfg)
    assert s.geometry.num_agents == 0
    assert all(p == () for p in s.pairs)


def test_generated_positions_uniform_mean():
    cfg = ScenarioConfig(num_agents=100, num_anchors=0, num_steps=1, seed=3)
    positions = np.concatenate(
        [generate_scenario(cfg, (i,)).geometry.paths[:, 0] for i in range(100)]
    )
    assert positions.shape == (10_000, 2)
    # uniform on [0, 20]^2: mean 10, sd 20/sqrt(12)
    se = 20.0 / math.sqrt(12.0) / math.sqrt(len(positions))
    assert np.abs(positions.mean(axis=0) - 10.0).max() < 3 * se


DIGEST_CONFIGS = {
    "dense_bound_seed_7": DENSE_BOUND.scenario_config(7),
    "dense_bound_seed_1112": DENSE_BOUND.scenario_config(1112),
    "full_5x4x20_seed_7": ScenarioConfig(num_agents=5, num_anchors=4, num_steps=20, seed=7),
    "coupled_velocity_radius_6": ScenarioConfig(
        vel_along=3.0, vel_across=1.0, vel_couple=0.5, connectivity=6.0
    ),
    "one_step": ScenarioConfig(num_steps=1),
    "no_agents": ScenarioConfig(num_agents=0),
}
DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "scenario_digests.json")


def scenario_digest(scenario) -> str:
    """sha256 over a scenario's paths, pair listing, weights and coeffs."""
    h = hashlib.sha256(scenario.geometry.paths.tobytes())
    h.update(repr(scenario.pairs).encode())
    h.update(scenario.weights.tobytes())
    h.update(scenario.coeffs.tobytes())
    return h.hexdigest()


def scenario_digests() -> dict[str, list[str]]:
    """Digests of `generate_scenario(cfg, (e,))`, e = 0..4, per named config."""
    return {
        name: [scenario_digest(generate_scenario(cfg, (e,))) for e in range(5)]
        for name, cfg in DIGEST_CONFIGS.items()
    }


def test_generated_scenarios_keep_their_bytes():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        assert scenario_digests() == json.load(fh)


# Sweeps whose recursion matrices have null directions: radius graphs
# isolate agents, no anchor leaves a translation (one anchor a rotation)
# unobserved, and no ranging leaves spatial_only without information. On
# radius graphs every sweep CSV row reads inf,nan, so only these digests
# pin the bits of `block_spebs`' null path.
NULL_PATH_CONFIGS = {
    **{f"radius_{r}": ScenarioConfig(num_steps=10, connectivity=float(r)) for r in (5, 6, 8, 10, 12)},
    "no_anchor": ScenarioConfig(num_steps=10, num_anchors=0),
    "one_anchor": ScenarioConfig(num_steps=10, num_anchors=1),
    "no_ranging": ScenarioConfig(num_steps=10, range_intensity=0.0),
    "full": ScenarioConfig(num_steps=10),
}
NULL_PATH_DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "null_path_digests.json")


def null_path_digest(cfg: ScenarioConfig, trials: int = 128) -> str:
    """sha256 over the per-trial `simkit._run_chunk` bounds of every mode
    and horizon, or each failed trial's exception, in chunks as a sweep
    runs them."""
    h = hashlib.sha256()
    horizons = range(1, cfg.num_steps + 1)
    for lo in range(0, trials, simkit.CHUNK_TRIALS):
        entropies = [(t,) for t in range(lo, min(lo + simkit.CHUNK_TRIALS, trials))]
        for result in simkit._run_chunk(cfg, entropies, ALL_MODES, horizons):
            if isinstance(result, Exception):
                h.update(repr(result).encode())
                continue
            for mode in ALL_MODES:
                h.update(result[mode.value].tobytes())
    return h.hexdigest()


def test_null_path_bounds_keep_their_bits():
    with open(NULL_PATH_DIGESTS_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    assert {name: null_path_digest(cfg) for name, cfg in NULL_PATH_CONFIGS.items()} == want


@pytest.mark.parametrize("area", [1e160, 1e200])
def test_offsets_whose_square_overflows_keep_finite_bounds(area):
    """Agent-node lengths past sqrt(max float) come from np.hypot, so the
    bounds of a huge area are those of a smaller one (the 1 m walk steps
    are negligible at both), not +inf."""

    def bounds(side):
        cfg = ScenarioConfig(area=(side, side), num_agents=2, num_steps=3)
        results = simkit._run_chunk(cfg, [(t,) for t in range(4)], ALL_MODES, range(1, 4))
        return np.stack([r[mode.value] for r in results for mode in ALL_MODES])

    got = bounds(area)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, bounds(1e150), rtol=1e-12, atol=0.0)


def test_radius_connectivity_limits_pairs():
    cfg = small_cfg(connectivity=5.0, num_agents=4, num_anchors=3)
    s = generate_scenario(cfg)
    for n, step_pairs in enumerate(s.pairs):
        for k, j in step_pairs:
            assert np.linalg.norm(s.geometry.paths[j, n] - s.geometry.paths[k, n]) <= 5.0


@settings(max_examples=100, deadline=None)
@given(
    na=st.integers(0, 6),
    nb=st.integers(0, 4),
    t=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    connectivity=st.sampled_from(["full", "tie", "isolating", "drawn"]),
    range_intensity=st.sampled_from([5.0, 0.37, 0.0]),
    velocity=st.sampled_from([(5.0, 5.0, 0.0), (3.0, 1.0, 0.5)]),
)
def test_built_scenarios_hold_what_their_listing_resolves_to(
    na, nb, t, seed, connectivity, range_intensity, velocity
):
    cfg = ScenarioConfig(
        num_agents=na,
        num_anchors=nb,
        num_steps=t,
        range_intensity=range_intensity,
        vel_along=velocity[0],
        vel_across=velocity[1],
        vel_couple=velocity[2],
        seed=seed,
    )
    paths = simkit._draw_paths(cfg)
    if connectivity != "full":
        radius = 8.0
        if na and na + nb > 1 and connectivity == "tie":  # last node on agent 0's radius
            radius = float(np.linalg.norm(paths[-1, t - 1] - paths[0, t - 1]))
        elif na and na + nb > 1 and connectivity == "isolating":  # agent 0 meets no node
            radius = 0.5 * float(np.linalg.norm(paths[1:] - paths[0], axis=-1).min())
        cfg = replace(cfg, connectivity=radius)
    built = simkit.build_scenario(cfg, paths)
    listed = Scenario(
        built.geometry, built.pairs, built.range_model, built.velocity_model, built.mobility
    )
    assert built == listed
    for name in ("weights", "coeffs"):
        got, want = getattr(built, name), getattr(listed, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert not got.flags.writeable


def test_only_a_pair_listing_is_resolved_into_weights(tmp_path, monkeypatch):
    calls = []
    resolve = models._pair_index
    monkeypatch.setattr(models, "_pair_index", lambda pairs: calls.append(1) or resolve(pairs))
    scenario = generate_scenario(small_cfg(connectivity=8.0))
    path = tmp_path / "scenario.json"
    intensities = {"lambda_kk": 5, "nu_kk": 5, "xi_kk": 0, "lambda_kj": 5}
    spec = {"area": [20, 20], "anchors": [[2, 3]], "agents": 2, "T": 3, "intensities": intensities}
    path.write_text(json.dumps(spec))
    load_scenario(str(path))
    assert calls == []
    Scenario(scenario.geometry, scenario.pairs, scenario.range_model)
    assert len(calls) == 1
    replace(scenario, range_model=RangeModel(intensity=1.0))
    assert len(calls) == 2


def listing_of_weights(scenario) -> tuple:
    """Per step, the pairs (k, j), k < j, k an agent, whose weight is
    nonzero, in row-major order: the listing `Scenario` resolves to a
    built scenario's weights when the range intensity is positive."""
    na, nodes = scenario.geometry.num_agents, scenario.geometry.num_nodes
    return tuple(
        tuple((k, j) for k in range(na) for j in range(k + 1, nodes) if step[k, j] != 0.0)
        for step in scenario.weights
    )


@pytest.mark.parametrize("connectivity", [None, 8.0])
def test_a_generated_scenario_lists_its_pairs_on_first_read(monkeypatch, connectivity):
    cfg = ScenarioConfig(num_agents=4, num_anchors=3, num_steps=6, connectivity=connectivity, seed=2)
    listed = []
    real = models.compress
    monkeypatch.setattr(models, "compress", lambda *args: listed.append(1) or real(*args))
    scenario = generate_scenario(cfg, (1,))
    copies = [copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))]
    assert listed == [] and "pairs" not in scenario.__dict__
    want = listing_of_weights(scenario)
    assert scenario.pairs == want
    assert len(listed) == cfg.num_steps  # one row of the mask per step, once
    assert scenario.pairs is scenario.pairs and len(listed) == cfg.num_steps
    public = Scenario(
        scenario.geometry, want, scenario.range_model, scenario.velocity_model, scenario.mobility
    )
    assert public.weights.tobytes() == scenario.weights.tobytes()
    copies += [copy.deepcopy(scenario), pickle.loads(pickle.dumps(scenario))]
    for other in copies:
        assert other.pairs == want
        assert other.weights.tobytes() == scenario.weights.tobytes()
        assert other == replace(other) and replace(other, pairs=want) == other
    assert len(listed) == 3 * cfg.num_steps  # the copies made before the read list their own
    assert scenario == public and scenario == replace(scenario)
    fresh = generate_scenario(cfg, (1,))
    assert fresh == replace(fresh) and fresh.pairs == want  # == lists it on the fly


# ---------------------------------------------------------------------------
# trials


def run_trial(cfg, trial, modes=ALL_MODES):
    """SPEB curves of every mode for the trial's generated scenario."""
    return trial_spebs(generate_scenario(cfg, (trial,)), modes)


def test_run_trial_reproducible():
    cfg = small_cfg()
    a = run_trial(cfg, 5)
    b = run_trial(cfg, 5)
    for mode in a:
        assert a[mode].tobytes() == b[mode].tobytes()


def test_trial_spebs_shape_and_mode_dominance():
    cfg = small_cfg(num_agents=3, num_anchors=3, num_steps=5)
    record = run_trial(cfg, 0)
    joint = record[CoopMode.JOINT.value]
    spatial = record[CoopMode.SPATIAL_ONLY.value]
    temporal = record[CoopMode.TEMPORAL_ONLY.value]
    assert joint.shape == (5, 3)
    # joint information contains each ablation: bounds can only shrink
    assert (joint <= spatial * (1 + 1e-9)).all()
    assert (joint <= temporal * (1 + 1e-9)).all()


def test_trial_first_step_joint_equals_spatial():
    record = run_trial(small_cfg(), 1)
    np.testing.assert_allclose(
        record[CoopMode.JOINT.value][0],
        record[CoopMode.SPATIAL_ONLY.value][0],
        rtol=1e-12,
    )


def test_trial_joint_against_marginalization():
    cfg = small_cfg(num_agents=2, num_anchors=2, num_steps=4, seed=11)
    record = run_trial(cfg, 3)
    scenario = generate_scenario(cfg, (3,))
    for horizon in (1, 2, 4):
        sub = truncated(scenario, horizon)
        full = assemble_position_efim(sub)
        final = marginal_efim(full, [(k, horizon - 1) for k in range(2)])
        oracle = block_spebs(final.matrix)
        np.testing.assert_allclose(
            record[CoopMode.JOINT.value][horizon - 1], oracle, rtol=1e-9
        )


def test_temporal_only_without_anchors_is_unbounded():
    cfg = small_cfg(num_anchors=0)
    record = run_trial(cfg, 0, modes=(CoopMode.TEMPORAL_ONLY,))
    assert np.isinf(record[CoopMode.TEMPORAL_ONLY.value]).all()


def test_lone_agent_no_anchors_spatial_is_unbounded():
    cfg = small_cfg(num_agents=1, num_anchors=0)
    record = run_trial(cfg, 0, modes=(CoopMode.SPATIAL_ONLY,))
    assert np.isinf(record[CoopMode.SPATIAL_ONLY.value]).all()


def assert_cooperation_never_hurts(spebs):
    """The joint EFIM is each ablation's plus PSD blocks, so per horizon and
    agent, wherever the smaller ablation bound is finite, the joint bound is
    finite and not above it (1e-9 relative)."""
    best = np.minimum(spebs["temporal_only"], spebs["spatial_only"])
    bounded = np.isfinite(best)
    joint = spebs["joint"][bounded]
    assert np.isfinite(joint).all()
    assert (joint <= best[bounded] * (1 + 1e-9)).all()


@settings(max_examples=40, deadline=None)
@given(
    na=st.integers(1, 8),
    nb=st.integers(1, 4),
    t=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_cooperation_never_hurts_on_full_networks(na, nb, t, seed):
    cfg = ScenarioConfig(num_agents=na, num_anchors=nb, num_steps=t, seed=seed)
    for spebs in simkit._run_chunk(cfg, [(i,) for i in range(4)], ALL_MODES, range(1, t + 1)):
        if not isinstance(spebs, Exception):
            assert_cooperation_never_hurts(spebs)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: on radius graphs the recursion gives joint bounds above "
    "temporal_only (entropy 19) and +inf below a finite one (entropy 3)",
)
@pytest.mark.parametrize("entropy", [19, 3])
def test_cooperation_never_hurts_on_a_radius_graph(entropy):
    cfg = ScenarioConfig(num_agents=5, num_anchors=4, num_steps=10, connectivity=8.0, seed=11)
    [spebs] = simkit._run_chunk(cfg, [(entropy,)], ALL_MODES, range(1, 11))
    assert_cooperation_never_hurts(spebs)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_time_rows_and_ordering():
    cfg = small_cfg(num_steps=4)
    table = sweep_time(cfg, trials=3)
    assert len(table.rows) == 3 * 4
    assert table.failed_trials == 0
    rows = table.sorted_rows()
    assert [r.mode for r in rows[:4]] == ["spatial_only"] * 4
    assert [r.sweep_value for r in rows[:4]] == [1, 2, 3, 4]
    assert all(r.trials == 3 for r in rows)


def test_sweep_time_step_subset(monkeypatch):
    # 12 trials: enough for numpy's pairwise sums to differ from sums in
    # trial order, were a lone horizon summed otherwise than the whole curve
    on_cpus(monkeypatch, 1)  # every chunk runs in this process
    monkeypatch.setattr(simkit, "_audit_recursion", lambda cfg_: None)
    seen, real = [], simkit.navinfo.block_spebs

    def recorded(matrix):
        seen.append(matrix.tobytes())
        return real(matrix)

    monkeypatch.setattr(simkit.navinfo, "block_spebs", recorded)
    cfg = small_cfg(num_steps=4)
    full = {(r.mode, r.sweep_value): r for r in sweep_time(cfg, trials=12).rows}
    per_horizon = seen.copy()
    assert len(per_horizon) == 4
    for steps in ([2, 4], [4], [1], [3, 1]):
        seen.clear()
        table = sweep_time(cfg, steps=steps, trials=12)
        assert seen == [per_horizon[h - 1] for h in sorted(steps)]
        assert len(table.rows) == len(ALL_MODES) * len(steps)
        for row in table.rows:
            assert row == full[(row.mode, row.sweep_value)]
    with pytest.raises(ConfigError, match=r"^step count 3 is repeated$"):
        sweep_time(cfg, steps=[3, 1, 3], trials=2)
    with pytest.raises(ConfigError):
        sweep_time(cfg, steps=[0], trials=2)
    with pytest.raises(ConfigError):
        sweep_time(cfg, steps=[9], trials=2)


def test_sweep_time_empty_agents_empty_table():
    table = sweep_time(small_cfg(num_agents=0), trials=2)
    assert table.rows == []


def test_sweep_time_requires_trials():
    with pytest.raises(ConfigError):
        sweep_time(small_cfg(), trials=0)


def test_sweep_nodes_rows():
    cfg = small_cfg(num_steps=3)
    table = sweep_nodes(cfg, [1, 2], trials=2)
    assert len(table.rows) == 3 * 2
    values = {(r.mode, r.sweep_value) for r in table.rows}
    assert ("joint", 1) in values and ("joint", 2) in values


def test_sweep_nodes_rejects_repeated_and_nonpositive_agent_counts(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a rejected sweep ran")

    monkeypatch.setattr(simkit, "_sweep", no_sweep)
    with pytest.raises(ConfigError, match=r"^agent count 2 is repeated$"):
        sweep_nodes(small_cfg(), [2, 2], trials=3)
    with pytest.raises(ConfigError, match=r"^agent counts must be >= 1$"):
        sweep_nodes(small_cfg(), [0], trials=3)


def test_lookup_of_a_missing_row_is_a_key_error():
    table = SpebTable(rows=[SpebRow("joint", 2, 1.0, 0.1, 4)])
    assert table.lookup(CoopMode.JOINT, 2) is table.rows[0]
    with pytest.raises(KeyError):
        table.lookup(CoopMode.JOINT, 3)
    with pytest.raises(KeyError):
        table.lookup(CoopMode.SPATIAL_ONLY, 2)


def test_sweep_failure_counting_and_threshold(monkeypatch):
    cfg = small_cfg()
    calls = {"n": 0}
    real = simkit._run_chunk

    def flaky(cfg_, entropies, modes=ALL_MODES, horizons=None):
        calls["n"] += 1
        out = real(cfg_, entropies, modes, horizons)
        failure = np.linalg.LinAlgError("synthetic failure")
        return [failure if entropy == (1,) else r for entropy, r in zip(entropies, out)]

    monkeypatch.setattr(simkit, "_run_chunk", flaky)
    # 1 failure out of 3 trials exceeds the 1% budget
    with pytest.raises(SweepNumericalError, match="1/3"):
        sweep_time(cfg, trials=3)
    monkeypatch.setattr(simkit, "_run_chunk", real)


def test_sweep_failures_within_budget_are_counted(monkeypatch):
    cfg = small_cfg(num_steps=2)
    real = simkit._run_chunk

    def flaky(cfg_, entropies, modes=ALL_MODES, horizons=None):
        out = real(cfg_, entropies, modes, horizons)
        failure = np.linalg.LinAlgError("synthetic failure")
        return [failure if entropy == (0,) else r for entropy, r in zip(entropies, out)]

    monkeypatch.setattr(simkit, "_run_chunk", flaky)
    table = sweep_time(cfg, trials=200)
    assert table.failed_trials == 1
    assert all(r.trials == 199 for r in table.rows)


def test_audit_runs_and_detects_corruption(monkeypatch):
    cfg = small_cfg()
    simkit._audit_recursion(cfg)  # should pass silently

    real = simkit._recursion

    def corrupted(*args):
        return real(*args) * 1.01

    monkeypatch.setattr(simkit, "_recursion", corrupted)
    with pytest.raises(simkit.AuditError):
        simkit._audit_recursion(cfg)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(1, 4),
    st.sampled_from([0, 1, 7, 42, 20110829, 2**31 - 1]),
)
def test_audit_values_are_bitwise_the_rebuilt_scenarios(na, nb, t, seed):
    # the kernel pass of the drawn audit trial against the former path: a
    # generated scenario, rebuilt, assembled and marginalized per horizon
    cfg = small_cfg(num_agents=na, num_anchors=nb, num_steps=t, seed=seed)
    recursive, direct = simkit._audit_spebs(cfg)
    want_recursive, want_direct = audit_spebs_by_rebuild(cfg)
    assert recursive.tobytes() == want_recursive.tobytes()
    assert direct.tobytes() == want_direct.tobytes()
    simkit._audit_recursion(cfg)


def stacked_spebs(scenarios):
    """`_stacked_spebs` of the chunk of the scenarios at every horizon."""
    horizons = range(1, scenarios[0].geometry.num_steps + 1)
    return simkit._stacked_spebs(scenario_chunk(scenarios), ALL_MODES, horizons)


def _coincident(scenario):
    """The scenario with agent 0 standing on the first anchor at step 1."""
    paths = scenario.geometry.paths.copy()
    paths[0, 1] = paths[scenario.geometry.num_agents, 1]
    geometry = ScenarioGeometry(paths, scenario.geometry.num_agents)
    return replace(scenario, geometry=geometry)


def test_chunk_failure_drops_only_its_trial():
    cfg = small_cfg(num_agents=3, num_steps=4)
    scenarios = [generate_scenario(cfg, (trial,)) for trial in range(5)]
    scenarios[2] = _coincident(scenarios[2])
    chunk = stacked_spebs(scenarios)
    assert isinstance(chunk[2], GeometryError)
    for i in (0, 1, 3, 4):
        [alone] = stacked_spebs([scenarios[i]])
        for mode in ALL_MODES:
            assert chunk[i][mode.value].tobytes() == alone[mode.value].tobytes()


def test_chunk_failures_name_each_trials_first_coincident_pair():
    cfg = small_cfg(num_agents=3, num_anchors=2, num_steps=4)
    scenarios = [generate_scenario(cfg, (trial,)) for trial in range(4)]
    faults = {0: [(1, 4, 3)], 2: [(1, 3, 3), (2, 0, 2)]}  # (agent, onto node, step)
    for i, moves in faults.items():
        paths = scenarios[i].geometry.paths.copy()
        for k, node, n in moves:
            paths[k, n] = paths[node, n]
        scenarios[i] = replace(scenarios[i], geometry=ScenarioGeometry(paths, 3))
    chunk = stacked_spebs(scenarios)
    assert str(chunk[0]) == "undefined direction: nodes 1 and 4 coincide at step 3"
    assert str(chunk[2]) == "undefined direction: nodes 0 and 2 coincide at step 2"
    for i in (1, 3):
        [alone] = stacked_spebs([scenarios[i]])
        for mode in ALL_MODES:
            assert chunk[i][mode.value].tobytes() == alone[mode.value].tobytes()


def fails_on_nan(eigh):
    """`eigh` raising on NaN input, a stand-in for a non-converging eigensolver."""

    def patched(a, *args, **kwargs):
        if np.isnan(a).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    return patched


def test_recursion_failure_drops_only_its_trial(monkeypatch):
    # the NaN prior poisons one trial's matrices only
    cfg = small_cfg(num_agents=3, num_steps=4)
    scenarios = [generate_scenario(cfg, (trial,)) for trial in range(4)]
    scenarios[1] = replace(scenarios[1], priors=((2, 1, np.full((2, 2), np.nan)),))
    monkeypatch.setattr(np.linalg, "eigh", fails_on_nan(np.linalg.eigh))
    chunk = stacked_spebs(scenarios)
    assert isinstance(chunk[1], np.linalg.LinAlgError)
    for i in (0, 2, 3):
        [alone] = stacked_spebs([scenarios[i]])
        for mode in ALL_MODES:
            assert chunk[i][mode.value].tobytes() == alone[mode.value].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["kernel", "recursion"]),
    st.integers(1, 12),
    st.dictionaries(st.integers(0, 11), st.integers(0, 3)),
)
@example("kernel", 12, {5: 2})
@example("recursion", 12, {11: 1})
def test_a_failing_chunk_gives_each_trial_its_own_result(stage, trials, failing):
    # trial i fails at step failing[i]: at the kernel stage agent 0 stands
    # on the first anchor, at the recursion stage a NaN prior reaches the
    # eigensolver
    cfg = small_cfg(num_agents=3, num_steps=4)
    faults = [failing.get(i) for i in range(trials)]
    drawn = simkit._drawn_chunk(cfg, [(trial,) for trial in range(trials)])
    paths, priors = drawn.paths.copy(), list(drawn.priors)
    for i, step in enumerate(faults):
        if step is not None and stage == "kernel":
            paths[i, 0, step] = paths[i, cfg.num_agents, step]
        elif step is not None:
            priors[i] = ((0, step, np.full((2, 2), np.nan)),)
    chunk = simkit._Chunk(paths, drawn.weights, drawn.coeffs, tuple(priors))
    horizons = range(1, cfg.num_steps + 1)
    passes = []
    real = simkit.navinfo._spatial_matrices

    def counted(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigh", fails_on_nan(np.linalg.eigh))
        patch.setattr(simkit.navinfo, "_spatial_matrices", counted)
        got = simkit._stacked_spebs(chunk, ALL_MODES, horizons)
        chunk_passes = len(passes)
        alone = [
            simkit._stacked_spebs(simkit._Chunk(*(f[i : i + 1] for f in chunk)), ALL_MODES, horizons)
            for i in range(trials)
        ]
    failed = sum(step is not None for step in faults)
    assert chunk_passes <= 1 + 2 * failed * (trials - 1).bit_length()  # ceil(log2 trials)
    for entry, [want], step in zip(got, alone, faults):
        if step is None:
            assert entry.keys() == want.keys()
            assert all(entry[m].tobytes() == want[m].tobytes() for m in want)
        else:
            assert isinstance(want, Exception) and type(entry) is type(want)
            assert str(entry) == str(want)


def test_sweep_counts_a_coincident_trial_as_failed(monkeypatch):
    cfg = small_cfg(num_steps=2)
    real = simkit._draw_paths

    def with_coincident(cfg_, entropy=()):
        paths = real(cfg_, entropy)
        if entropy == (3,):
            paths[0, 1] = paths[cfg_.num_agents, 1]  # agent 0 on the first anchor
        return paths

    monkeypatch.setattr(simkit, "_draw_paths", with_coincident)
    table = sweep_time(cfg, trials=120)
    assert table.failed_trials == 1
    assert all(r.trials == 119 for r in table.rows)


def test_sweep_recursion_reads_the_scenario_models():
    # sigma-derived base intensity, a range table entry and a velocity table
    # entry: none of them is in ScenarioConfig
    base = generate_scenario(small_cfg(num_agents=3, num_steps=4), (0,))
    scenario = replace(
        base,
        range_model=RangeModel(sigma_range=0.3, table={(0, 3, 2): 40.0}),
        velocity_model=VelocityModel(5.0, 2.0, 1.0, table={(1, 2): (0.5, 8.0, 0.0)}),
    )
    got = trial_spebs(scenario, ALL_MODES)
    na, t = 3, 4
    for mode in ALL_MODES:
        ref = scenario
        if mode is CoopMode.TEMPORAL_ONLY:
            ref = replace(
                scenario, pairs=tuple(tuple(p for p in step if p[1] >= na) for step in scenario.pairs)
            )
        s = [spatial_step_matrix(ref, n) for n in range(t)]
        carry = np.zeros((2 * na, 2 * na))
        want = np.empty((t, na))
        for n in range(t):
            if n > 0 and mode is not CoopMode.SPATIAL_ONLY:
                k_full = block_diag(temporal_step_blocks(ref, n))
                carry = carry_over_step(k_full, s[n - 1], carry)
            want[n] = block_spebs(s[n] + carry)
        np.testing.assert_array_equal(got[mode.value], want)
    plain = trial_spebs(base, ALL_MODES)
    assert not np.array_equal(plain[CoopMode.JOINT.value], got[CoopMode.JOINT.value])


# ---------------------------------------------------------------------------
# aggregation and persistence


def test_aggregate_with_infinities():
    vals = [np.array([1.0, math.inf]), np.array([3.0, 5.0])]
    mean, err = simkit._aggregate(vals)
    assert mean[0] == pytest.approx(2.0)
    assert mean[1] == math.inf
    assert math.isnan(err[1])
    assert err[0] == pytest.approx(np.std([1.0, 3.0], ddof=1) / math.sqrt(2))


def test_persist_empty_table(tmp_path):
    path = tmp_path / "out.csv"
    persist(SpebTable(), path)
    assert path.read_text() == "mode,sweep_value,mean_speb_m2,std_error_m2,trials\n"


def test_persist_round_trip_exact(tmp_path):
    table = SpebTable(
        rows=[
            SpebRow("joint", 3, 1.0 / 3.0, 0.125, 7),
            SpebRow("spatial_only", 1, math.pi, math.inf, 7),
        ]
    )
    path = tmp_path / "out.csv"
    persist(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "mode,sweep_value,mean_speb_m2,std_error_m2,trials"
    # sorted: spatial_only first
    first = lines[1].split(",")
    assert first[0] == "spatial_only"
    assert float(first[2]) == math.pi
    assert float(first[3]) == math.inf
    second = lines[2].split(",")
    assert float(second[2]) == 1.0 / 3.0


def test_write_atomic_removes_its_temp_file_when_replace_fails(tmp_path):
    path = tmp_path / "out.csv"
    path.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError, match="cannot write .*out.csv"):
        simkit.write_atomic(path, "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    assert path.is_dir()


# ---------------------------------------------------------------------------
# the sweep's worker processes, one per CPU of the process's affinity

WORKER_COUNTS = [1, 2, 3]


def on_cpus(monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)


def test_sweep_csvs_are_byte_identical_at_every_worker_count_and_chunk_size(
    tmp_path, monkeypatch
):
    cfg = small_cfg(num_agents=3, num_steps=4, connectivity=12.0)
    trials = simkit.CHUNK_TRIALS + 3
    outputs = {"time": set(), "nodes": set()}
    for chunk_trials in (simkit.CHUNK_TRIALS, 1):
        monkeypatch.setattr(simkit, "CHUNK_TRIALS", chunk_trials)
        for workers in WORKER_COUNTS:
            on_cpus(monkeypatch, workers)
            tables = {
                "time": sweep_time(cfg, trials=trials),
                "nodes": sweep_nodes(cfg, [1, 3, 2], trials=trials),
            }
            for stem, table in tables.items():
                path = tmp_path / f"{stem}-{chunk_trials}-{workers}.csv"
                persist(table, path)
                outputs[stem].add((path.read_bytes(), repr(table.rows)))
    assert [len(seen) for seen in outputs.values()] == [1, 1]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_golden_file_at_every_worker_count(tmp_path, monkeypatch, workers):
    on_cpus(monkeypatch, workers)
    cfg = ScenarioConfig(num_agents=2, num_anchors=2, num_steps=3, seed=20110829)
    persist(sweep_time(cfg, trials=5), tmp_path / "golden.csv")
    golden = __file__.rsplit("/", 1)[0] + "/data/sweep_time_golden.csv"
    with open(golden, "rb") as fh:
        assert (tmp_path / "golden.csv").read_bytes() == fh.read()


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a_sweep_starts_one_thread_fewer_than_its_cpus(monkeypatch, workers):
    # every worker but this process is forked, by this process
    on_cpus(monkeypatch, workers)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    sweep_nodes(small_cfg(), [1, 2, 3], trials=4)
    sweep_time(small_cfg(), trials=4)
    assert forks == [os.getpid()] * (2 * (workers - 1))
    assert_no_child_is_left()


def test_nothing_is_forked_without_a_cpu_affinity(monkeypatch):
    # as where os.fork is missing too: the sweep runs in this process alone
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a worker was forked"))
    assert sweep_nodes(small_cfg(), [1, 2, 3], trials=4).rows


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_a_chunk_exception_propagates_and_no_thread_outlives_the_sweep(monkeypatch, workers):
    # on 2 and 3 CPUs the 2-agent chunk is a forked worker's: its exception
    # crosses the pipe with its type and message
    on_cpus(monkeypatch, workers)
    real = simkit._run_chunk

    def broken(cfg_, entropies, modes=ALL_MODES, horizons=None):
        if (2, 0) in entropies:
            raise RuntimeError("broken chunk")
        return real(cfg_, entropies, modes, horizons)

    monkeypatch.setattr(simkit, "_run_chunk", broken)
    with pytest.raises(RuntimeError, match="^broken chunk$"):
        sweep_nodes(small_cfg(), [1, 2, 3], trials=8)
    assert_no_child_is_left()


def in_a_forked_worker(monkeypatch, act):
    """Patch `_chunk_means` so that every chunk run by a forked worker returns
    `act()`; this process runs its chunks as usual."""
    parent, real = os.getpid(), simkit._chunk_means

    def patched(*args):
        return act() if os.getpid() != parent else real(*args)

    monkeypatch.setattr(simkit, "_chunk_means", patched)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_killed_worker_is_one_error_and_leaves_no_child(monkeypatch, workers):
    on_cpus(monkeypatch, workers)
    in_a_forked_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(simkit.SweepWorkerError, match=r"^sweep worker \d+ was lost \(signal 9\)$"):
        sweep_nodes(small_cfg(), [1, 2, 3], trials=8)
    assert_no_child_is_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_an_outcome_that_cannot_be_pickled_is_one_error(monkeypatch, workers):
    on_cpus(monkeypatch, workers)
    in_a_forked_worker(monkeypatch, lambda: [{"joint": lambda: None}])
    with pytest.raises(simkit.SweepWorkerError, match="^sweep worker: .*pickle"):
        sweep_nodes(small_cfg(), [1, 2, 3], trials=8)
    assert_no_child_is_left()


def test_an_interrupted_sweep_kills_its_workers(monkeypatch):
    # the workers would sleep for a minute; this process is interrupted at once
    on_cpus(monkeypatch, 3)
    parent = os.getpid()

    def chunk(cfg_, entropies, modes=ALL_MODES, horizons=None):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(simkit, "_run_chunk", chunk)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep_nodes(small_cfg(), [1, 2, 3], trials=8)
    assert time.monotonic() - started < 30
    assert_no_child_is_left()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_failure_budget_wins_over_a_failing_audit(monkeypatch, workers):
    on_cpus(monkeypatch, workers)

    def all_fail(cfg_, entropies, modes=ALL_MODES, horizons=None):
        return [np.linalg.LinAlgError("synthetic failure") for _ in entropies]

    def failing_audit(cfg_):
        raise simkit.AuditError("synthetic audit failure")

    monkeypatch.setattr(simkit, "_audit_recursion", failing_audit)
    with pytest.raises(simkit.AuditError):
        sweep_time(small_cfg(), trials=4)
    monkeypatch.setattr(simkit, "_run_chunk", all_fail)
    with pytest.raises(SweepNumericalError, match="4/4"):
        sweep_time(small_cfg(), trials=4)
    with pytest.raises(SweepNumericalError, match="^8/8 trials"):
        sweep_nodes(small_cfg(), [1, 2], trials=4)


def test_a_sweep_holds_one_mean_per_mode_and_trial(monkeypatch):
    on_cpus(monkeypatch, 1)  # every chunk runs in this process, where `seen` is
    seen = []
    real = simkit._chunk_means

    def kept(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(simkit, "_chunk_means", kept)
    sweep_time(small_cfg(num_steps=4), trials=3)
    sweep_nodes(small_cfg(num_steps=4), [2, 3], trials=3)
    means = [spebs for chunk in seen for trial in chunk for spebs in trial.values()]
    assert {m.shape for m in means} == {(4,), (1,)}
    assert all(m.base is None for m in means)
