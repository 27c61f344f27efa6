"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success (visible with -s / -rP); a failure
raises with the offending case. Tolerances are pinned here, nothing deferred.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import navlim
from navlim.blockfim import ChainBlocks, block_diag, eliminate_hmm_chain
from navlim.geom2d import Eigen2, r_dir
from navlim.models import Scenario, ScenarioGeometry
from navlim.navinfo import (
    assemble_position_efim,
    axes_coupling_closed_form,
    block_spebs,
    carry_over_step,
    decompose_axes_coupling,
    decompose_weighted_sum,
    marginal_efim,
    spatial_step_matrix,
    speb,
    temporal_step_blocks,
)
from navlim.simkit import CoopMode, ScenarioConfig, generate_scenario, sweep_nodes, sweep_time
from oracles import (
    dense_chain_reduction,
    dense_position_fim,
    random_chain,
    random_gaussian_case,
    rel_frobenius,
)
from test_navinfo import scenario_from_case


def _report(num, label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"PASS criterion {num}: {label} ({elapsed:.2f}s < {budget}s)")


def _spd2(rng, lo=0.1, hi=10.0):
    l1, l2 = rng.uniform(lo, hi, size=2)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return l1 * r_dir(ang) + l2 * r_dir(ang + math.pi / 2)


def test_criterion_1_assembly_matches_dense_schur():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for case_index in range(100):
        case = random_gaussian_case(rng, max_agents=3, max_anchors=3, max_steps=4)
        ours = assemble_position_efim(scenario_from_case(case)).matrix
        oracle = dense_position_fim(case)
        err = rel_frobenius(ours, oracle)
        assert err < 1e-9, f"case {case_index}: rel Frobenius {err:.3e}"
    _report(1, "structured assembly == dense Schur of the joint Gaussian FIM", started, 10.0)


def test_criterion_2_chain_elimination_matches_dense():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for case_index in range(100):
        blocks, dense, s_slices, n_slices = random_chain(rng, max_steps=6, max_dim=3)
        ours = eliminate_hmm_chain(ChainBlocks(**blocks))
        oracle = dense_chain_reduction(dense, s_slices, n_slices)
        ours_full = _stack_blocks(ours, s_slices)
        oracle_full = _stack_blocks(oracle, s_slices)
        err = rel_frobenius(ours_full, oracle_full)
        assert err < 1e-9, f"case {case_index}: rel Frobenius {err:.3e}"
    _report(2, "hidden-Markov chain elimination == dense elimination", started, 5.0)


def _stack_blocks(blocks: dict, state_slices) -> np.ndarray:
    dims = [s.stop - s.start for s in state_slices]
    offsets = np.cumsum([0] + dims)
    out = np.zeros((offsets[-1], offsets[-1]))
    for (n, m), val in blocks.items():
        out[offsets[n] : offsets[n + 1], offsets[m] : offsets[m + 1]] = val
        if n != m:
            out[offsets[m] : offsets[m + 1], offsets[n] : offsets[n + 1]] = val.T
    return out


def test_criterion_3_recursion_matches_marginalization():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for case_index in range(100):
        cfg = ScenarioConfig(
            num_agents=int(rng.integers(1, 4)),
            num_anchors=int(rng.integers(1, 4)),
            num_steps=int(rng.integers(2, 5)),
            vel_along=float(rng.uniform(1.0, 8.0)),
            vel_across=float(rng.uniform(1.0, 8.0)),
            range_intensity=float(rng.uniform(1.0, 8.0)),
            seed=int(rng.integers(0, 2**31)),
        )
        scenario = generate_scenario(cfg, (case_index,))
        na, t = cfg.num_agents, cfg.num_steps
        full = assemble_position_efim(scenario)
        carry = np.zeros((2 * na, 2 * na))
        for n in range(1, t):
            k_full = block_diag(temporal_step_blocks(scenario, n))
            carry = carry_over_step(k_full, spatial_step_matrix(scenario, n - 1), carry)
            suffix = assemble_position_efim(scenario, start_step=n, carry=carry)
            keep = [(k, m) for k in range(na) for m in range(n, t)]
            marg = marginal_efim(full, keep)
            err = rel_frobenius(suffix.matrix, marg.matrix)
            assert err < 1e-9, f"case {case_index}, suffix {n}: {err:.3e}"
    _report(3, "carry-over recursion == direct marginalization, every suffix", started, 10.0)


def test_criterion_4_geometric_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    for case_index in range(1000):
        k = _spd2(rng)
        s = _spd2(rng)
        direct = carry_over_step(k, s)
        split = decompose_weighted_sum(k, s)
        recon = split.w_spatial * s + split.w_temporal * k
        assert rel_frobenius(recon, direct) < 1e-10, f"weighted case {case_index}"

        lam, nu = sorted(rng.uniform(0.1, 10.0, size=2))[::-1]
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        k_eigen = Eigen2(float(lam), float(nu), angle)
        split4 = decompose_axes_coupling(k_eigen, s)
        direct4 = carry_over_step(k_eigen.reconstruct(), s)
        assert rel_frobenius(split4.reconstruct(), direct4) < 1e-10, f"axes case {case_index}"
        z1, z2, coupling = axes_coupling_closed_form(k_eigen, s)
        assert abs(split4.zeta1 - z1) < 1e-10 * max(1.0, abs(z1))
        assert abs(split4.zeta2 - z2) < 1e-10 * max(1.0, abs(z2))
        assert abs(split4.coupling - coupling) < 1e-10 * max(1.0, abs(coupling))

    # coupling-vanishing cases
    for case_index in range(100):
        k_eigen = Eigen2(
            float(rng.uniform(0.5, 5.0)),
            float(rng.uniform(0.1, 0.5)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        iso = float(rng.uniform(0.5, 5.0)) * np.eye(2)
        assert abs(decompose_axes_coupling(k_eigen, iso).coupling) < 1e-12
        beta = float(rng.uniform(0.0, 2.0 * math.pi))
        s_aniso = 3.0 * r_dir(beta) + 1.0 * r_dir(beta + math.pi / 2)
        aligned = Eigen2(2.0, 1.0, beta)
        assert abs(decompose_axes_coupling(aligned, s_aniso).coupling) < 1e-12
        orthogonal = Eigen2(2.0, 1.0, beta + math.pi / 2)
        assert abs(decompose_axes_coupling(orthogonal, s_aniso).coupling) < 1e-12
        rank1 = Eigen2(float(rng.uniform(0.5, 5.0)), 0.0, beta + 0.3)
        assert abs(decompose_axes_coupling(rank1, s_aniso).coupling) < 1e-12
    _report(4, "weighted-sum and axes-coupling identities + vanishing cases", started, 2.0)


def test_criterion_5_carry_over_order_and_limit():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    for _ in range(500):
        k = _spd2(rng)
        s = _spd2(rng, lo=0.0, hi=20.0)
        carry = carry_over_step(k, s)
        assert np.linalg.eigvalsh(k - carry).min() >= -1e-10
        assert np.linalg.eigvalsh(carry).min() >= -1e-10
    for _ in range(100):
        k = _spd2(rng, lo=0.1, hi=5.0)  # spectral norm <= 10
        assert np.linalg.norm(k, 2) <= 10.0
        carry = carry_over_step(k, 1e8 * np.eye(2))
        assert np.linalg.norm(carry - k) / np.linalg.norm(k) <= 1e-5
    _report(5, "carried information below its source; perfect-prior limit", started, 5.0)


def test_criterion_6_anchor_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    for case_index in range(50):
        na = int(rng.integers(2, 5))
        cfg = ScenarioConfig(
            num_agents=na,
            num_anchors=int(rng.integers(1, 4)),
            num_steps=int(rng.integers(2, 4)),
            seed=int(rng.integers(0, 2**31)),
        )
        scenario = generate_scenario(cfg, (case_index,))
        t = cfg.num_steps
        pinned = Scenario(
            geometry=scenario.geometry,
            pairs=scenario.pairs,
            range_model=scenario.range_model,
            velocity_model=scenario.velocity_model,
            priors=tuple((na - 1, n, 1e12 * np.eye(2)) for n in range(t)),
        )
        as_anchor = Scenario(
            geometry=ScenarioGeometry(scenario.geometry.paths, na - 1),
            pairs=tuple(
                tuple(p for p in step if p[0] < na - 1) for step in scenario.pairs
            ),
            range_model=scenario.range_model,
            velocity_model=scenario.velocity_model,
        )
        j_pinned = assemble_position_efim(pinned)
        j_anchor = assemble_position_efim(as_anchor)
        for k in range(na - 1):
            for n in range(t):
                a = speb(j_pinned, k, n)
                b = speb(j_anchor, k, n)
                assert abs(a - b) <= 1e-4 * abs(b), (
                    f"case {case_index}, agent {k}, step {n}: {a} vs {b}"
                )
    _report(6, "1e12-pinned agent == declared anchor for everyone else", started, 10.0)


FIG_CFG = ScenarioConfig(
    area=(20.0, 20.0),
    num_agents=5,
    num_anchors=4,
    num_steps=20,
    vel_along=5.0,
    vel_across=5.0,
    vel_couple=0.0,
    range_intensity=5.0,
    step_cov=1.0,
    seed=20110829,
)


def _within(a, b, se):
    return a <= b + 2.0 * se


def test_criterion_7_speb_vs_time_steps():
    started = time.perf_counter()
    table = sweep_time(FIG_CFG, trials=500)
    assert table.failed_trials == 0
    for t in range(1, 21):
        joint = table.lookup(CoopMode.JOINT, t)
        spatial = table.lookup(CoopMode.SPATIAL_ONLY, t)
        temporal = table.lookup(CoopMode.TEMPORAL_ONLY, t)
        se_js = math.hypot(joint.std_error, spatial.std_error)
        se_jt = math.hypot(joint.std_error, temporal.std_error)
        assert _within(joint.mean_speb, spatial.mean_speb, se_js), f"step {t} vs spatial"
        assert _within(joint.mean_speb, temporal.mean_speb, se_jt), f"step {t} vs temporal"
    for t in range(1, 20):
        a = table.lookup(CoopMode.JOINT, t)
        b = table.lookup(CoopMode.JOINT, t + 1)
        se = math.hypot(a.std_error, b.std_error)
        assert _within(b.mean_speb, a.mean_speb, se), f"joint not non-increasing at {t}"
    _report(7, "time sweep: joint dominates and is non-increasing (500 trials)", started, 60.0)


def test_criterion_8_speb_vs_node_count():
    started = time.perf_counter()
    cfg = ScenarioConfig(
        area=(20.0, 20.0),
        num_agents=12,
        num_anchors=4,
        num_steps=10,
        vel_along=5.0,
        vel_across=5.0,
        vel_couple=0.0,
        range_intensity=5.0,
        step_cov=1.0,
        seed=20110830,
    )
    table = sweep_nodes(cfg, range(2, 13), trials=500)
    for count in range(2, 13):
        joint = table.lookup(CoopMode.JOINT, count)
        spatial = table.lookup(CoopMode.SPATIAL_ONLY, count)
        assert joint.mean_speb <= spatial.mean_speb * (1 + 1e-12), f"count {count}"
    for mode in (CoopMode.SPATIAL_ONLY, CoopMode.JOINT):
        for count in range(2, 12):
            a = table.lookup(mode, count)
            b = table.lookup(mode, count + 1)
            se = math.hypot(a.std_error, b.std_error)
            assert _within(b.mean_speb, a.mean_speb, se), f"{mode} at {count}"
    _report(8, "node sweep: joint <= spatial pointwise, both non-increasing", started, 60.0)


def test_criterion_9_exact_banding():
    started = time.perf_counter()
    rng = np.random.default_rng(109)
    for case_index in range(50):
        cfg = ScenarioConfig(
            num_agents=int(rng.integers(1, 4)),
            num_anchors=int(rng.integers(0, 4)),
            num_steps=int(rng.integers(3, 6)),
            vel_couple=0.0,
            seed=int(rng.integers(0, 2**31)),
        )
        scenario = generate_scenario(cfg, (case_index,))
        j = assemble_position_efim(scenario)
        na, t = cfg.num_agents, cfg.num_steps
        for n in range(t):
            for m in range(n + 2, t):
                blk = j.matrix[
                    2 * na * n : 2 * na * (n + 1), 2 * na * m : 2 * na * (m + 1)
                ]
                assert not blk.any(), f"case {case_index}: bits at ({n}, {m})"
    _report(9, "cross-information beyond adjacent steps is bitwise zero", started, 10.0)


def test_criterion_10_cli_determinism(tmp_path):
    started = time.perf_counter()
    # the subprocesses import the navlim these tests import
    env = dict(os.environ, PYTHONPATH=str(Path(navlim.__file__).parent.parent))
    base = [
        sys.executable,
        "-m",
        "navlim.cli",
        "sweep-time",
        "--trials",
        "5",
        "--steps",
        "1..4",
        "--agents",
        "3",
        "--anchors",
        "3",
        "--seed",
        "1234",
        "--emit",
        "both",
    ]
    for run in ("a", "b"):
        out = subprocess.run(
            base + ["--out-dir", str(tmp_path / run)], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
    assert (tmp_path / "a/sweep_time.csv").read_bytes() == (
        tmp_path / "b/sweep_time.csv"
    ).read_bytes()
    assert (tmp_path / "a/sweep_time.svg").read_bytes() == (
        tmp_path / "b/sweep_time.svg"
    ).read_bytes()

    verify = [sys.executable, "-m", "navlim.cli", "verify", "--seed", "7", "--cases", "40"]
    out1 = subprocess.run(verify, capture_output=True, text=True, env=env)
    out2 = subprocess.run(verify, capture_output=True, text=True, env=env)
    assert out1.returncode == 0, out1.stdout + out1.stderr
    assert out1.stdout == out2.stdout
    _report(10, "identical flags + seed give byte-identical outputs", started, 120.0)
