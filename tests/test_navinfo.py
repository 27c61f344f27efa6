import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from navlim import navinfo
from navlim.blockfim import ChainBlocks, SingularBlockError, _scaled_eigh, block_diag, eliminate_block
from navlim.geom2d import Eigen2, r_dir
from navlim.models import (
    MobilityModel,
    RangeModel,
    Scenario,
    ScenarioGeometry,
    VelocityModel,
    velocity_intensities,
)
from navlim.navinfo import (
    assemble_position_efim,
    axes_coupling_closed_form,
    bayesian_efim,
    block_spebs,
    carry_over_step,
    decompose_axes_coupling,
    decompose_weighted_sum,
    independent_params_efim,
    individual_efims,
    marginal_efim,
    spatial_step_matrix,
    speb,
    speb_with_rank,
    temporal_step_blocks,
)
from navlim.simkit import CoopMode, ScenarioConfig, generate_scenario
from perfbench.workloads import DENSE_BOUND
from oracles import (
    GaussianCase,
    band_matrix,
    bayesian_efim_by_scatter,
    block_spebs_by_block,
    check_bands_by_stacked_factor,
    dense_final_spebs,
    dense_position_fim,
    distributed_carry_over_by_agent,
    extend_carries_by_solve,
    individual_efims_by_agent,
    mobility_blocks,
    null_cutoff,
    pair_blocks,
    random_gaussian_case,
    random_chain,
    ranging_local_info,
    rel_frobenius,
    scatter_mobility,
    scatter_spatial_matrices,
    speb_of_rows,
    speb_with_rank_by_rows,
    trial_spebs,
    velocity_local_info,
    velocity_matrices,
)


def scenario_from_case(case: GaussianCase) -> Scenario:
    """Package-side view of an oracle case: per-measurement intensities via
    the local-information reductions, everything else from geometry."""
    t = case.paths.shape[1]
    geometry = ScenarioGeometry(case.paths, case.num_agents)
    pairs = [[] for _ in range(t)]
    range_table = {}
    for spec in case.rangings:
        local = ranging_local_info(spec)
        lam = eliminate_block(local[0, 0], local[0, 1], local[1, 1])
        pairs[spec.n].append((spec.k, spec.j))
        range_table[(spec.k, spec.j, spec.n)] = lam
    vel_table = {}
    for spec in case.velocities:
        local = velocity_local_info(spec)
        reduced = eliminate_block(local[:2, :2], local[:2, 2:], local[2:, 2:])
        dist = float(
            np.linalg.norm(case.paths[spec.k, spec.n] - case.paths[spec.k, spec.n - 1])
        )
        vel_table[(spec.k, spec.n)] = velocity_intensities(reduced, dist)
    return Scenario(
        geometry=geometry,
        pairs=tuple(tuple(p) for p in pairs),
        range_model=RangeModel(intensity=0.0, table=range_table),
        velocity_model=VelocityModel(0.0, 0.0, 0.0, table=vel_table),
    )


def simple_scenario(seed=0, num_agents=2, num_anchors=2, num_steps=3, **kw):
    cfg = ScenarioConfig(
        num_agents=num_agents,
        num_anchors=num_anchors,
        num_steps=num_steps,
        seed=seed,
        **kw,
    )
    return generate_scenario(cfg)


# ---------------------------------------------------------------------------
# assembly


def test_single_agent_single_anchor_single_step():
    paths = np.array([[[0.0, 0.0]], [[3.0, 4.0]]])
    geom = ScenarioGeometry(paths, num_agents=1)
    scenario = Scenario(
        geometry=geom,
        pairs=(((0, 1),),),
        range_model=RangeModel(intensity=5.0),
    )
    j = assemble_position_efim(scenario)
    angle = math.atan2(4.0, 3.0)
    np.testing.assert_allclose(j.matrix, 5.0 * r_dir(angle), rtol=1e-12)


def test_temporal_only_two_agents_two_steps_pattern():
    rng = np.random.default_rng(1)
    paths = np.cumsum(rng.uniform(0.5, 1.5, size=(2, 2, 2)), axis=1)
    geom = ScenarioGeometry(paths, num_agents=2)
    scenario = Scenario(
        geometry=geom,
        pairs=((), ()),
        velocity_model=VelocityModel(3.0, 1.0, 0.5),
    )
    j = assemble_position_efim(scenario)
    k_full = block_diag(temporal_step_blocks(scenario, 1))
    np.testing.assert_allclose(j.matrix[:4, :4], k_full, atol=1e-14)
    np.testing.assert_allclose(j.matrix[4:, 4:], k_full, atol=1e-14)
    np.testing.assert_allclose(j.matrix[:4, 4:], -k_full, atol=1e-14)


def test_assemble_matches_dense_gaussian_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        case = random_gaussian_case(rng)
        scenario = scenario_from_case(case)
        ours = assemble_position_efim(scenario).matrix
        oracle = dense_position_fim(case)
        assert rel_frobenius(ours, oracle) < 1e-9


def test_row_structure_and_banding():
    scenario = simple_scenario(seed=5, num_agents=3, num_anchors=2, num_steps=3)
    j = assemble_position_efim(scenario)
    na, t = 3, 3
    for n in range(t):
        s_n = spatial_step_matrix(scenario, n)
        # diagonal agent block = sum over peers, off-diagonal = -pair block
        for k in range(na):
            total = np.zeros((2, 2))
            for k2, peer in scenario.pairs[n]:
                if k in (k2, peer):
                    lam = scenario.range_model.intensity_at(k2, peer, n)
                    total += pair_blocks(scenario.geometry.paths, k2, peer, n, lam)
            np.testing.assert_allclose(
                s_n[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], total, atol=1e-12
            )
        for m in range(t):
            blk = j.matrix[2 * na * n : 2 * na * (n + 1), 2 * na * m : 2 * na * (m + 1)]
            if abs(n - m) > 1:
                assert not blk.any()  # exact zero pattern beyond the band


def test_assemble_symmetry():
    scenario = simple_scenario(seed=6)
    j = assemble_position_efim(scenario)
    np.testing.assert_array_equal(j.matrix, j.matrix.T)


# ---------------------------------------------------------------------------
# marginalization and the carry-over recursion


def test_marginal_keep_everything_is_identity():
    scenario = simple_scenario(seed=7)
    j = assemble_position_efim(scenario)
    out = marginal_efim(j, j.coords)
    np.testing.assert_allclose(out.matrix, j.matrix)


def test_two_step_suffix_closed_form():
    scenario = simple_scenario(seed=8, num_agents=1, num_anchors=2, num_steps=2)
    j = assemble_position_efim(scenario)
    s0 = spatial_step_matrix(scenario, 0)
    s1 = spatial_step_matrix(scenario, 1)
    k = temporal_step_blocks(scenario, 1)[0]
    carry = k - k @ np.linalg.inv(s0 + k) @ k
    out = marginal_efim(j, [(0, 1)])
    np.testing.assert_allclose(out.matrix, s1 + carry, rtol=1e-10, atol=1e-12)


def test_recursion_matches_marginalization_all_suffixes():
    rng = np.random.default_rng(31)
    for _ in range(10):
        na = int(rng.integers(1, 4))
        scenario = simple_scenario(
            seed=int(rng.integers(1 << 30)),
            num_agents=na,
            num_anchors=int(rng.integers(1, 4)),
            num_steps=int(rng.integers(2, 5)),
        )
        t = scenario.geometry.num_steps
        j = assemble_position_efim(scenario)
        carry = np.zeros((2 * na, 2 * na))
        for n in range(1, t):
            k_full = block_diag(temporal_step_blocks(scenario, n))
            carry = carry_over_step(k_full, spatial_step_matrix(scenario, n - 1), carry)
            suffix = assemble_position_efim(scenario, start_step=n, carry=carry)
            marg = marginal_efim(j, [(k, m) for k in range(na) for m in range(n, t)])
            assert rel_frobenius(suffix.matrix, marg.matrix) < 1e-9


def test_carry_over_uninformed_past_gives_zero():
    k = np.array([[4.0, 1.0], [1.0, 2.0]])
    out = carry_over_step(k, np.zeros((2, 2)))
    np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-12)


def test_carry_over_perfect_past_approaches_k():
    k = np.diag([5.0, 5.0])
    out = carry_over_step(k, 1e8 * np.eye(2))
    assert np.linalg.norm(out - k) / np.linalg.norm(k) < 1e-5


def test_carry_over_harmonic_mean_case():
    k = 2.0 * np.eye(2)
    s = 2.0 * np.eye(2)
    np.testing.assert_allclose(carry_over_step(k, s), np.eye(2), rtol=1e-12)


def test_carry_over_is_psd_and_below_k():
    rng = np.random.default_rng(32)
    for _ in range(200):
        k = _random_spd2(rng)
        s = _random_spd2(rng)
        carry = carry_over_step(k, s)
        assert np.linalg.eigvalsh(carry).min() >= -1e-10
        assert np.linalg.eigvalsh(k - carry).min() >= -1e-10


def test_carry_over_and_block_spebs_stacks_equal_per_matrix_calls():
    rng = np.random.default_rng(33)
    scenarios = [
        generate_scenario(ScenarioConfig(num_agents=4, num_anchors=2, num_steps=3, seed=s))
        for s in range(6)
    ]
    s_prev = np.stack([spatial_step_matrix(sc, 0) for sc in scenarios]).reshape(2, 3, 8, 8)
    k_now = np.stack(
        [block_diag(temporal_step_blocks(sc, 1)) for sc in scenarios]
    ).reshape(2, 3, 8, 8)
    carry = rng.uniform(0.0, 0.1) * np.eye(8)
    stacked = carry_over_step(k_now, s_prev, carry)
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(stacked[idx], carry_over_step(k_now[idx], s_prev[idx], carry))
    # a matrix with null directions (agent 1 uninformed) takes the null path
    # inside the stack
    totals = s_prev + stacked
    totals[1, 2, 2:4, :] = totals[1, 2, :, 2:4] = 0.0
    spebs = block_spebs(totals)
    assert spebs.shape == (2, 3, 4)
    assert math.isinf(spebs[1, 2, 1]) and np.isfinite(spebs[1, 2, [0, 2, 3]]).all()
    for idx in np.ndindex(2, 3):
        np.testing.assert_array_equal(spebs[idx], block_spebs(totals[idx]))


def _random_spd2(rng, lo=0.1, hi=10.0):
    l1, l2 = rng.uniform(lo, hi, size=2)
    ang = rng.uniform(0, 2 * math.pi)
    return l1 * r_dir(ang) + l2 * r_dir(ang + math.pi / 2)


# ---------------------------------------------------------------------------
# distributed carry-over


def distributed_step(s_prev, carry_prev, k_now) -> list[np.ndarray]:
    """The distributed carry-over as `ellipse` runs it: every agent's
    individual EFIM after the previous step's cooperation, through one
    stacked `carry_over_step`."""
    na = len(k_now)
    individual = individual_efims(s_prev + block_diag(list(carry_prev)))
    return list(carry_over_step(np.reshape(k_now, (na, 2, 2)), np.reshape(individual, (na, 2, 2))))


def test_distributed_single_agent_equals_centralized():
    rng = np.random.default_rng(33)
    k = _random_spd2(rng)
    s = _random_spd2(rng)
    central = carry_over_step(k, s)
    dist = distributed_step(s, [np.zeros((2, 2))], [k])
    np.testing.assert_allclose(dist[0], central, rtol=1e-10)


def test_distributed_block_diagonal_equals_centralized():
    rng = np.random.default_rng(34)
    ks = [_random_spd2(rng) for _ in range(3)]
    ss = [_random_spd2(rng) for _ in range(3)]
    s_full = block_diag(ss)
    carries = [np.zeros((2, 2))] * 3
    dist = distributed_step(s_full, carries, ks)
    central = carry_over_step(block_diag(ks), s_full, np.zeros((6, 6)))
    for k in range(3):
        np.testing.assert_allclose(
            dist[k], central[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], rtol=1e-9
        )


def test_distributed_carries_less_per_agent_information():
    # Dropping inter-agent correlation discards information per agent: each
    # distributed carry block sits below the corresponding diagonal block of
    # the centralized carry (Loewner), so the SPEB read off an agent's own
    # carried information can only grow. (The *fused* network bound is a
    # different story: stacking correlation-free marginals overstates joint
    # information, so the distributed final bound comes out optimistic.)
    rng = np.random.default_rng(35)
    for _ in range(100):
        na = 3
        scenario = simple_scenario(
            seed=int(rng.integers(1 << 30)), num_agents=na, num_anchors=2, num_steps=3
        )
        t = scenario.geometry.num_steps
        carry_c = np.zeros((2 * na, 2 * na))
        carry_d = [np.zeros((2, 2))] * na
        for n in range(1, t):
            k_blocks = temporal_step_blocks(scenario, n)
            s_prev = spatial_step_matrix(scenario, n - 1)
            carry_c = carry_over_step(block_diag(k_blocks), s_prev, carry_c)
            carry_d = distributed_step(s_prev, carry_d, k_blocks)
        for k in range(na):
            central_blk = carry_c[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
            gap = central_blk - carry_d[k]
            assert np.linalg.eigvalsh(gap).min() >= -1e-10
            # per-agent carry SPEB: distributed >= centralized
            speb_d = np.trace(np.linalg.inv(carry_d[k]))
            speb_c = np.trace(np.linalg.inv(central_blk))
            assert speb_d >= speb_c * (1 - 1e-9)


def _psd2(rng: np.random.Generator, kind: str) -> np.ndarray:
    if kind == "zero":
        return np.zeros((2, 2))
    block = rng.uniform(0.1, 10.0) * r_dir(rng.uniform(0.0, 2.0 * math.pi))
    return block if kind == "rank1" else block + _random_spd2(rng)


@st.composite
def distributed_steps(draw):
    """One step of the distributed recursion for 0..12 agents: a ranging
    matrix of random rank-1 links among the agents and to 0..3 anchors (no
    link at all for zero ranging, and agents whose rows are zeroed, as a
    radius graph isolates them), agents pinned by a 1e12 prior, and carry
    and velocity blocks that are zero, rank-1 or positive definite."""
    na = draw(st.integers(0, 12))
    num_anchors = draw(st.integers(0, 3))
    p_link = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = np.zeros((2 * na, 2 * na))
    for k in range(na):
        for peer in range(k + 1, na + num_anchors):
            if rng.uniform() >= p_link:
                continue
            block = rng.uniform(0.1, 10.0) * r_dir(rng.uniform(0.0, 2.0 * math.pi))
            rk = slice(2 * k, 2 * k + 2)
            matrix[rk, rk] += block
            if peer < na:
                rp = slice(2 * peer, 2 * peer + 2)
                matrix[rp, rp] += block
                matrix[rk, rp] -= block
                matrix[rp, rk] -= block
    agents = st.integers(0, max(na - 1, 0))
    if na:
        for k in draw(st.sets(agents, max_size=3)):
            matrix[2 * k : 2 * k + 2, :] = matrix[:, 2 * k : 2 * k + 2] = 0.0
        for k in draw(st.sets(agents, max_size=2)):
            matrix[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += 1e12 * np.eye(2)
    kinds = st.lists(st.sampled_from(["zero", "rank1", "pd"]), min_size=na, max_size=na)
    carries = [_psd2(rng, kind) for kind in draw(kinds)]
    k_now = [_psd2(rng, kind) for kind in draw(kinds)]
    return matrix, carries, k_now


def _outcome(func, *args):
    """The bytes of each returned block, or the exception raised."""
    try:
        return [block.tobytes() for block in func(*args)]
    except (SingularBlockError, np.linalg.LinAlgError) as exc:
        return repr(exc)


@settings(max_examples=200, deadline=None)
@given(distributed_steps())
def test_stacked_distributed_step_is_the_per_agent_loop_bitwise(step):
    matrix, carries, k_now = step
    total = matrix + block_diag(carries)
    assert _outcome(individual_efims, total) == _outcome(individual_efims_by_agent, total)
    assert _outcome(distributed_step, matrix, carries, k_now) == _outcome(
        distributed_carry_over_by_agent, matrix, carries, k_now
    )


def test_distributed_carry_over_of_no_agents_is_empty():
    assert individual_efims(np.zeros((0, 0))) == []
    assert distributed_step(np.zeros((0, 0)), [], []) == []


# ---------------------------------------------------------------------------
# decompositions


def test_weighted_sum_rank1_temporal():
    rng = np.random.default_rng(36)
    lam = 3.0
    psi_angle = 0.7
    c = lam * r_dir(psi_angle)
    s = _random_spd2(rng)
    split = decompose_weighted_sum(c, s)
    direct = carry_over_step(c, s)
    assert split.w_spatial == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(split.w_temporal * c, direct, rtol=1e-10, atol=1e-12)
    expect_weight = np.linalg.det(s) / np.linalg.det(c + s)
    assert split.w_temporal == pytest.approx(expect_weight, rel=1e-12)


def test_weighted_sum_equal_matrices_halves():
    rng = np.random.default_rng(37)
    k = _random_spd2(rng)
    split = decompose_weighted_sum(k, k)
    recon = split.w_spatial * k + split.w_temporal * k
    np.testing.assert_allclose(recon, 0.5 * k, rtol=1e-10)


def test_weighted_sum_random_reconstruction():
    rng = np.random.default_rng(38)
    for _ in range(1000):
        k = _random_spd2(rng)
        s = _random_spd2(rng)
        split = decompose_weighted_sum(k, s)
        recon = split.w_spatial * s + split.w_temporal * k
        direct = carry_over_step(k, s)
        assert rel_frobenius(recon, direct) < 1e-10


def test_split_closed_forms_reject_a_singular_sum():
    along = r_dir(0.0)  # both ingredients inform the x axis only
    with pytest.raises(ValueError, match=r"^singular sum: \|S \+ K\| = 0$"):
        decompose_weighted_sum(along, along)
    with pytest.raises(ValueError, match=r"^singular sum$"):
        axes_coupling_closed_form(Eigen2(3.0, 0.0, 0.0), along)


def test_axes_coupling_vanishes_for_isotropic_spatial():
    rng = np.random.default_rng(39)
    k_eigen = Eigen2(4.0, 1.5, 0.9)
    s = 2.5 * np.eye(2)
    split = decompose_axes_coupling(k_eigen, s)
    assert abs(split.coupling) < 1e-12
    _, _, closed = axes_coupling_closed_form(k_eigen, s)
    assert abs(closed) < 1e-12


def test_axes_coupling_vanishes_for_aligned_axes():
    beta = 1.1
    s = 3.0 * r_dir(beta) + 1.0 * r_dir(beta + math.pi / 2)
    for offset in (0.0, math.pi / 2):
        k_eigen = Eigen2(5.0, 2.0, beta + offset)
        split = decompose_axes_coupling(k_eigen, s)
        assert abs(split.coupling) < 1e-12


def test_axes_coupling_vanishes_for_rank1_temporal():
    rng = np.random.default_rng(40)
    s = _random_spd2(rng)
    split = decompose_axes_coupling(Eigen2(3.0, 0.0, 0.3), s)
    assert abs(split.coupling) < 1e-12


def test_axes_coupling_random_reconstruction_and_closed_forms():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        lam, nu = sorted(rng.uniform(0.1, 10.0, size=2))[::-1]
        angle = rng.uniform(0, 2 * math.pi)
        k_eigen = Eigen2(float(lam), float(nu), float(angle))
        s = _random_spd2(rng)
        split = decompose_axes_coupling(k_eigen, s)
        direct = carry_over_step(k_eigen.reconstruct(), s)
        assert rel_frobenius(split.reconstruct(), direct) < 1e-10
        z1, z2, coupling = axes_coupling_closed_form(k_eigen, s)
        assert split.zeta1 == pytest.approx(z1, rel=1e-10)
        assert split.zeta2 == pytest.approx(z2, rel=1e-10)
        assert split.coupling == pytest.approx(coupling, rel=1e-10, abs=1e-12)
        assert 0 < split.zeta1 <= 1 and 0 < split.zeta2 <= 1


# ---------------------------------------------------------------------------
# SPEB


def test_speb_isotropic():
    j = navinfo.JointEfim(((0, 0),), 5.0 * np.eye(2))
    assert speb(j, 0, 0) == pytest.approx(0.4)


def test_speb_diagonal():
    j = navinfo.JointEfim(((0, 0),), np.diag([4.0, 1.0]))
    assert speb(j, 0, 0) == pytest.approx(1.25)


def test_speb_matches_dense_inverse():
    scenario = simple_scenario(seed=42, num_agents=2, num_anchors=3, num_steps=3)
    j = assemble_position_efim(scenario)
    inv = np.linalg.inv(j.matrix)
    for k in range(2):
        for n in range(3):
            r = j.rows(k, n)
            assert speb(j, k, n) == pytest.approx(np.trace(inv[r, r]), rel=1e-9)


def test_speb_singular_reports_infinity_with_rank():
    k = np.array([[2.0, 0.3], [0.3, 1.0]])
    matrix = np.block([[k, -k], [-k, k]])
    j = navinfo.JointEfim(((0, 0), (0, 1)), matrix)
    value, null_dim = speb_with_rank(j, 0, 0)
    assert value == math.inf
    assert null_dim == 2


def test_speb_partial_observability():
    # One pinned agent, one floating: only the floater is unbounded.
    pinned = 10.0 * np.eye(2)
    matrix = block_diag([pinned, np.zeros((2, 2))])
    j = navinfo.JointEfim(((0, 0), (1, 0)), matrix)
    assert speb(j, 0, 0) == pytest.approx(0.2)
    assert speb(j, 1, 0) == math.inf


@st.composite
def network_stacks(draw):
    """Stacks of 1..6 symmetric 2Na x 2Na matrices, Na in 1..6, with 0 up to
    2Na null directions: ranging networks of random links (rank-deficient
    when links are few), random PSD matrices of any rank, all-zero ones,
    some with agents' rows zeroed or pinned by a 1e12 prior."""
    na = draw(st.integers(1, 6))
    dim = 2 * na
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["ranging", "low_rank", "zero"]))
        matrix = np.zeros((dim, dim))
        if kind == "ranging":
            p_link = draw(st.floats(0.0, 1.0))
            for k in range(na):
                for peer in range(k, na + 2):  # peers na, na + 1 are anchors
                    if peer == k or rng.uniform() >= p_link:
                        continue
                    block = rng.uniform(0.1, 10.0) * r_dir(rng.uniform(0.0, 2.0 * math.pi))
                    rk = slice(2 * k, 2 * k + 2)
                    matrix[rk, rk] += block
                    if peer < na:
                        rp = slice(2 * peer, 2 * peer + 2)
                        matrix[rp, rp] += block
                        matrix[rk, rp] -= block
                        matrix[rp, rk] -= block
        elif kind == "low_rank":
            a = rng.normal(size=(dim, draw(st.integers(0, dim))))
            matrix = a @ a.T
        for k in draw(st.sets(st.integers(0, na - 1))):
            matrix[2 * k : 2 * k + 2, :] = matrix[:, 2 * k : 2 * k + 2] = 0.0
        for k in draw(st.sets(st.integers(0, na - 1), max_size=1)):
            matrix[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] += 1e12 * np.eye(2)
        stack.append(matrix)
    return np.stack(stack)


@settings(max_examples=200, deadline=None)
@given(network_stacks())
def test_stacked_bounds_are_the_per_block_read_bitwise(stack):
    got = block_spebs(stack)
    na = stack.shape[-1] // 2
    assert got.shape == (len(stack), na) and got.dtype == float
    assert got.tobytes() == block_spebs_by_block(stack).tobytes()
    for matrix in stack:
        j = navinfo.JointEfim(navinfo.position_coords(na, 1), matrix)
        for k in range(na):
            assert speb_with_rank(j, k, 0) == speb_with_rank_by_rows(matrix, j.rows(k, 0))


def test_loewner_monotonicity_under_augmentation():
    rng = np.random.default_rng(43)
    scenario = simple_scenario(seed=44, num_agents=2, num_anchors=2, num_steps=3)
    j = assemble_position_efim(scenario)
    before = [speb(j, k, n) for (k, n) in j.coords]
    for _ in range(25):
        k0, n0 = j.coords[rng.integers(len(j.coords))]
        extra = _random_spd2(rng, lo=0.0, hi=3.0)
        aug = Scenario(
            geometry=scenario.geometry,
            pairs=scenario.pairs,
            range_model=scenario.range_model,
            velocity_model=scenario.velocity_model,
            priors=((k0, n0, extra),),
        )
        j_aug = assemble_position_efim(aug)
        after = [speb(j_aug, k, n) for (k, n) in j.coords]
        assert all(a <= b * (1 + 1e-9) + 1e-12 for a, b in zip(after, before))


# ---------------------------------------------------------------------------
# Bayesian assembly with parameter chains


def test_bayesian_mobility_only_rank_deficiency():
    na, t = 2, 3
    out = bayesian_efim(na, t, mobility=MobilityModel(np.eye(2)))
    total = out.total
    assert not out.temporal.any() and not out.spatial.any()
    w = np.linalg.eigvalsh(total.matrix)
    assert (np.abs(w) < 1e-10).sum() == 2 * na


def test_bayesian_additivity_and_psd_parts():
    rng = np.random.default_rng(45)
    na, t = 2, 3
    intra = {}
    for k in range(na):
        blocks, _, _, _ = random_chain(rng, steps=t, state_dim=2)
        intra[k] = ChainBlocks(**blocks)
    pair = {}
    blocks, _, _, _ = random_chain(rng, steps=t, state_dim=2)
    pair[(0, 1)] = ChainBlocks(**blocks)
    out = bayesian_efim(na, t, mobility=MobilityModel(np.eye(2)), intra_chains=intra, pair_chains=pair)
    np.testing.assert_allclose(
        out.total.matrix, out.mobility + out.temporal + out.spatial, atol=1e-12
    )
    for part in (out.mobility, out.temporal, out.spatial):
        assert np.linalg.eigvalsh(part).min() > -1e-9
        np.testing.assert_allclose(part, part.T, atol=1e-12)


def test_bayesian_intra_chain_matches_dense_oracle():
    rng = np.random.default_rng(46)
    na, t = 1, 3
    blocks, dense_chain, s_slices, n_slices = random_chain(rng, steps=t, state_dim=2)
    chain = ChainBlocks(**blocks)
    mobility = MobilityModel(0.5 * np.eye(2))
    # dense oracle: chain matrix plus the mobility stripe on the state side
    dense = dense_chain_matrix_with_mobility(dense_chain, s_slices, mobility, t)
    state_idx = np.concatenate([np.arange(s.start, s.stop) for s in s_slices])
    nuis_idx = np.concatenate([np.arange(s.start, s.stop) for s in n_slices])
    a = dense[np.ix_(state_idx, state_idx)]
    b = dense[np.ix_(state_idx, nuis_idx)]
    c = dense[np.ix_(nuis_idx, nuis_idx)]
    oracle = a - b @ np.linalg.inv(c) @ b.T
    ours = bayesian_efim(na, t, mobility=mobility, intra_chains={0: chain}).total
    assert rel_frobenius(ours.matrix, oracle) < 1e-9


def dense_chain_matrix_with_mobility(dense_chain, s_slices, mobility, t):
    dense = dense_chain.copy()
    for n, m, blk in mobility_blocks(mobility, t):
        rn, rm = s_slices[n], s_slices[m]
        dense[rn, rm] += blk
        if n != m:
            dense[rm, rn] += blk.T
    return dense


def test_bayesian_zero_cross_collapses_to_independent_params():
    # Chains whose nuisances have no dynamics reduce step by step; the result
    # must match the independent-parameter assembly fed the same reductions.
    sigma_range, sigma_bias = 0.5, 0.4
    paths = np.array(
        [
            [[0.0, 0.0], [1.0, 0.5]],
            [[4.0, 0.0], [4.5, 1.0]],
            [[2.0, 5.0], [2.0, 5.0]],
        ]
    )
    geom = ScenarioGeometry(paths, num_agents=2)
    pairs = (((0, 1), (0, 2), (1, 2)),) * 2  # every pair at both steps
    t = 2
    info = 1.0 / sigma_range**2
    prior = 1.0 / sigma_bias**2

    pair_chains = {}
    for k, j in pairs[0]:
        state_direct, cross_same, nuis_diag = [], [], []
        for n in range(t):
            u = paths[j, n] - paths[k, n]
            u = u / np.linalg.norm(u)
            state_direct.append(info * np.outer(u, u))
            cross_same.append(info * u[:, None])
            nuis_diag.append(np.array([[info + prior]]))
        pair_chains[(k, j)] = ChainBlocks(
            state_direct=tuple(state_direct),
            nuis_diag=tuple(nuis_diag),
            nuis_offdiag=(np.zeros((1, 1)),),
            cross_same=tuple(cross_same),
            cross_next=(np.zeros((2, 1)),),
        )
    out = bayesian_efim(2, t, pair_chains=pair_chains)

    scenario = Scenario(
        geometry=geom,
        pairs=pairs,
        range_model=RangeModel(sigma_range=sigma_range, sigma_bias=sigma_bias),
    )
    expect = independent_params_efim(scenario)
    assert rel_frobenius(out.total.matrix, expect.matrix) < 1e-10
    # no nuisance dynamics: strictly time-block-diagonal
    assert not out.total.matrix[:4, 4:].any()


# ---------------------------------------------------------------------------
# independent-parameter assembly


def test_independent_params_no_nuisance_reduces_to_assembler():
    scenario = simple_scenario(seed=47, num_agents=2, num_anchors=2, num_steps=2)
    spatial_only = Scenario(
        geometry=scenario.geometry,
        pairs=scenario.pairs,
        range_model=RangeModel(sigma_range=0.5),  # no bias: raw likelihood
    )
    direct = Scenario(
        geometry=scenario.geometry,
        pairs=scenario.pairs,
        range_model=RangeModel(intensity=4.0),
    )
    np.testing.assert_allclose(
        independent_params_efim(spatial_only).matrix,
        assemble_position_efim(direct).matrix,
        rtol=1e-12,
    )


def test_independent_params_bias_prior_intensity():
    paths = np.array([[[0.0, 0.0]], [[2.0, 0.0]]])
    geom = ScenarioGeometry(paths, num_agents=1)
    scenario = Scenario(
        geometry=geom,
        pairs=(((0, 1),),),
        range_model=RangeModel(sigma_range=0.4, sigma_bias=0.3),
    )
    j = independent_params_efim(scenario)
    np.testing.assert_allclose(j.matrix, 4.0 * r_dir(0.0), rtol=1e-12)


def test_independent_params_unobservable_bias():
    paths = np.array([[[0.0, 0.0]], [[2.0, 0.0]]])
    geom = ScenarioGeometry(paths, num_agents=1)
    scenario = Scenario(
        geometry=geom,
        pairs=(((0, 1),),),
        range_model=RangeModel(sigma_range=0.4, sigma_bias=math.inf),
    )
    np.testing.assert_allclose(
        independent_params_efim(scenario).matrix, 0.0, atol=1e-12
    )


def test_independent_params_rejects_priors_at_unknown_coordinates():
    # per-position blocks enter through `priors`, which `Scenario` checks
    scenario = replace(simple_scenario(seed=49), velocity_model=None)
    cases = [
        ((2, 0, np.eye(2)), r"^prior on unknown agent 2$"),
        ((-1, 0, np.eye(2)), r"^prior on unknown agent -1$"),
        ((0, 3, np.eye(2)), r"^prior at unknown step 3$"),
        ((0, -1, np.eye(2)), r"^prior at unknown step -1$"),
        ((0, 0, 3.0), r"^prior blocks must be 2x2$"),  # a scalar once added to all four entries
    ]
    for prior, message in cases:
        with pytest.raises(ValueError, match=message):
            independent_params_efim(replace(scenario, priors=(prior,)))


def test_bayesian_chains_match_the_block_scatter():
    rng = np.random.default_rng(64)
    na, t = 12, 40

    def chain():
        return ChainBlocks(**random_chain(rng, steps=t, state_dim=2)[0])

    intra = {k: chain() for k in range(na)}
    # one pair chain to an agent, one to an anchor (node na + 1), one overlapping
    pair = {(0, 5): chain(), (3, na + 1): chain(), (5, 3): chain()}
    mobility = MobilityModel(np.array([[1.0, 0.2], [0.2, 0.5]]))
    ours = bayesian_efim(na, t, mobility=mobility, intra_chains=intra, pair_chains=pair)
    want = bayesian_efim_by_scatter(na, t, mobility=mobility, intra_chains=intra, pair_chains=pair)
    assert ours.coords == want.coords
    assert ours.mobility.tobytes() == want.mobility.tobytes()
    for part in ("temporal", "spatial"):
        a, b = (getattr(x, part).reshape(na * t, 2, na * t, 2) for x in (ours, want))
        diff = np.linalg.norm(a - b, axis=(1, 3))
        scale = np.linalg.norm(b, axis=(1, 3))
        assert (diff <= 1e-12 * scale).all(), part


def test_bayesian_rejects_chain_keys_outside_the_nodes():
    rng = np.random.default_rng(63)
    chain = ChainBlocks(**random_chain(rng, steps=3, state_dim=2)[0])
    with pytest.raises(ValueError, match="unknown agent"):
        bayesian_efim(2, 3, intra_chains={2: chain})
    with pytest.raises(ValueError, match="unknown agent"):
        bayesian_efim(2, 3, pair_chains={(-1, 0): chain})
    with pytest.raises(ValueError, match="unknown node"):
        bayesian_efim(2, 3, pair_chains={(0, -1): chain})
    with pytest.raises(ValueError, match="two distinct nodes"):
        bayesian_efim(2, 3, pair_chains={(1, 1): chain})


def test_bayesian_rejects_chains_that_do_not_fit_the_positions():
    rng = np.random.default_rng(65)
    longer = ChainBlocks(**random_chain(rng, steps=4, state_dim=2)[0])
    scalar = ChainBlocks(**random_chain(rng, steps=3, state_dim=1)[0])
    for chains in ({"intra_chains": {0: longer}}, {"pair_chains": {(0, 1): longer}}):
        with pytest.raises(ValueError, match="chain length must equal the number of steps"):
            bayesian_efim(2, 3, **chains)
    for chains in ({"intra_chains": {0: scalar}}, {"pair_chains": {(0, 1): scalar}}):
        with pytest.raises(ValueError, match="state slots must be 2-D positions"):
            bayesian_efim(2, 3, **chains)


def test_independent_params_rejects_velocity():
    scenario = simple_scenario(seed=48)
    with pytest.raises(ValueError, match="consecutive steps"):
        independent_params_efim(scenario)


def test_independent_params_priors_and_mobility():
    paths = np.zeros((1, 2, 2))
    paths[0, 1] = [1.0, 0.0]
    geom = ScenarioGeometry(paths, num_agents=1)
    scenario = Scenario(
        geometry=geom,
        pairs=((), ()),
        mobility=MobilityModel(np.eye(2)),
        priors=((0, 0, 3.0 * np.eye(2)),),
    )
    j = independent_params_efim(scenario)
    expect = np.zeros((4, 4))
    expect[:2, :2] = 3.0 * np.eye(2) + np.eye(2)
    expect[2:, 2:] = np.eye(2)
    expect[:2, 2:] = expect[2:, :2] = -np.eye(2)
    np.testing.assert_allclose(j.matrix, expect)


# ---------------------------------------------------------------------------
# anchors vs pinned agents


def test_anchor_equivalence_small():
    for trial in range(5):
        na, nb, t = 3, 2, 2
        scenario = simple_scenario(
            seed=100 + trial, num_agents=na, num_anchors=nb, num_steps=t
        )
        pinned = Scenario(
            geometry=scenario.geometry,
            pairs=scenario.pairs,
            range_model=scenario.range_model,
            velocity_model=scenario.velocity_model,
            priors=tuple((na - 1, n, 1e12 * np.eye(2)) for n in range(t)),
        )
        as_anchor = Scenario(
            geometry=ScenarioGeometry(scenario.geometry.paths, na - 1),
            # pairs of the converted node keep their agent side only
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
                assert abs(a - b) <= 1e-4 * abs(b)


# ---------------------------------------------------------------------------
# step helpers


def test_assemble_argument_validation():
    scenario = simple_scenario(seed=52, num_agents=2, num_anchors=1, num_steps=2)
    with pytest.raises(ValueError, match="start_step"):
        assemble_position_efim(scenario, start_step=2)
    with pytest.raises(ValueError, match="carry"):
        assemble_position_efim(scenario, carry=np.eye(2))
    for n in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            spatial_step_matrix(scenario, n)
    for n in (0, 2):
        with pytest.raises(ValueError, match="no transition"):
            temporal_step_blocks(scenario, n)


def test_marginal_rejects_unknown_coordinates():
    scenario = simple_scenario(seed=53, num_agents=1, num_anchors=1, num_steps=2)
    j = assemble_position_efim(scenario)
    with pytest.raises(ValueError, match="unknown coordinates"):
        marginal_efim(j, [(7, 0)])


def test_joint_efim_rejects_duplicate_coordinates():
    with pytest.raises(ValueError, match="duplicate coordinate"):
        navinfo.JointEfim(((0, 0), (0, 0)), np.eye(4))


def test_joint_efim_rejects_a_matrix_of_the_wrong_size_and_any_attribute_write():
    with pytest.raises(ValueError, match="matrix size does not match coordinate list"):
        navinfo.JointEfim(((0, 0), (1, 0)), np.eye(2))
    j = navinfo.JointEfim(((0, 0),), np.eye(2))
    with pytest.raises(AttributeError, match="immutable"):
        j.coords = ((1, 0),)
    assert j.coords == ((0, 0),)


def test_individual_efims_match_inverse_blocks():
    rng = np.random.default_rng(50)
    from oracles import random_spd

    total = random_spd(rng, 6)
    inv = np.linalg.inv(total)
    outs = individual_efims(total)
    for k in range(3):
        blk = inv[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        np.testing.assert_allclose(outs[k], np.linalg.inv(blk), rtol=1e-9)


def test_spatial_step_matrix_consistent_with_assembler():
    scenario = simple_scenario(seed=51, num_agents=2, num_anchors=1, num_steps=1)
    j = assemble_position_efim(scenario)
    np.testing.assert_allclose(spatial_step_matrix(scenario, 0), j.matrix)


# ---------------------------------------------------------------------------
# block-tridiagonal sweep against the dense path


def dense_speb_with_rank(j):
    """The dense bound of `j` as a function of (agent, step): every read
    gives the bound and the null count of one eigendecomposition of the
    whole matrix, made here."""
    w, v, scale = _scaled_eigh(j.matrix)
    cutoff = null_cutoff(w)
    null_count = int((w <= cutoff).sum())
    return lambda agent, step: (speb_of_rows(w, v, scale, j.rows(agent, step), cutoff), null_count)


def assert_bounds_agree(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(np.isposinf(got), np.isposinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=0.0)


@st.composite
def banded_efims(draw):
    """Joint EFIMs of generated scenarios: full or radius connectivity,
    optionally anchor-only pairs and a 1e12 pinning prior, over a window
    start_step..T-1 whose history enters as the recursion's carry."""
    na = draw(st.integers(1, 12))
    t = draw(st.integers(1, 40))
    cfg = ScenarioConfig(
        num_agents=na,
        num_anchors=draw(st.integers(1, 4)),
        num_steps=t,
        connectivity=draw(st.one_of(st.none(), st.floats(8.0, 20.0))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    scenario = generate_scenario(cfg)
    if draw(st.booleans()):
        scenario = replace(
            scenario,
            pairs=tuple(tuple(p for p in step if p[1] >= na) for step in scenario.pairs),
        )
    if draw(st.booleans()):
        scenario = replace(
            scenario, priors=tuple((na - 1, n, 1e12 * np.eye(2)) for n in range(t))
        )
    start = draw(st.integers(0, t - 1))
    carry = np.zeros((2 * na, 2 * na))
    for n in range(1, start + 1):
        k_full = block_diag(temporal_step_blocks(scenario, n))
        carry = carry_over_step(k_full, spatial_step_matrix(scenario, n - 1), carry)
    j = assemble_position_efim(scenario, start_step=start, carry=carry if start else None)
    lo = draw(st.integers(start, t - 1))
    hi = draw(st.integers(lo, t - 1))
    return j, na, lo, hi


@settings(max_examples=25, deadline=None)
@given(banded_efims())
def test_sweep_matches_dense_path(case):
    j, na, lo, hi = case
    keep = {(k, n) for k in range(na) for n in range(lo, hi + 1)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(navinfo, "_SWEEP_MIN_DIM", 0)  # sweep at every size
        try:
            want = navinfo._dense_marginal_efim(j, keep)
        except SingularBlockError:
            with pytest.raises(SingularBlockError):
                marginal_efim(j, keep)
        else:
            got = marginal_efim(j, keep)
            assert got.coords == want.coords
            assert_bounds_agree(block_spebs(got.matrix), block_spebs(want.matrix))
        dense = dense_speb_with_rank(j)
        for step in {j.coords[0][1], lo, hi}:
            for k in range(na):
                value, null_dim = speb_with_rank(j, k, step)
                want_value, want_null = dense(k, step)
                assert_bounds_agree([value], [want_value])
                assert null_dim == want_null


@settings(max_examples=25, deadline=None)
@given(banded_efims(), st.booleans())
def test_window_and_dense_reads_are_the_per_block_read_bitwise(case, sweep_every_size):
    """`speb_with_rank` reads the step's window when the sweep serves `j`,
    else the whole matrix: either way it is the per-block read of that
    matrix."""
    j, na, lo, _ = case
    with pytest.MonkeyPatch.context() as mp:
        if sweep_every_size:
            mp.setattr(navinfo, "_SWEEP_MIN_DIM", 0)
        window = navinfo._sweep_window(j, lo, lo)
        for k in range(na):
            if window is None:
                want = speb_with_rank_by_rows(j.matrix, j.rows(k, lo))
            else:
                want = speb_with_rank_by_rows(window, slice(2 * k, 2 * k + 2))
            assert speb_with_rank(j, k, lo) == want


def test_sweep_runs_at_full_size_without_dense_solves(monkeypatch):
    cfg = ScenarioConfig(num_agents=12, num_anchors=4, num_steps=40, connectivity=10.0, seed=3)
    j = assemble_position_efim(generate_scenario(cfg, (0,)))
    last = [(k, 39) for k in range(12)]
    want_final = block_spebs(navinfo._dense_marginal_efim(j, set(last)).matrix)
    dense = dense_speb_with_rank(j)
    want_mid = [dense(k, 20) for k in range(12)]

    def no_dense(*args, **kwargs):
        raise AssertionError("dense marginal EFIM called")

    sizes = []
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(navinfo, "_dense_marginal_efim", no_dense)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert_bounds_agree(block_spebs(marginal_efim(j, last).matrix), want_final)
    for k in range(12):
        assert speb_with_rank(j, k, 20) == pytest.approx(want_mid[k], rel=1e-9)
    assert max(sizes) == 24


def test_the_dense_reference_bounds_an_agent_whose_chain_is_decoupled():
    # temporal_only at a 5 m radius: every entry linking agent 4 to another
    # agent is 0.0, so the reduction leaves only round-off between it and
    # the uninformed agents, which must not be scaled into coupling
    cfg = ScenarioConfig(num_steps=10, connectivity=5.0)
    scenario = generate_scenario(cfg, (10,))
    na, horizon = cfg.num_agents, 5
    anchor_only = replace(
        scenario, pairs=tuple(tuple(p for p in step if p[1] >= na) for step in scenario.pairs)
    )
    got = dense_final_spebs(anchor_only, horizon)[4]
    mode = CoopMode.TEMPORAL_ONLY
    want = trial_spebs(scenario, (mode,))[mode.value][horizon - 1, 4]
    assert got == pytest.approx(2866.52, abs=5e-3)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_dense_bound_ops_pass_the_benchmarks_output_check(seed):
    # the benchmark's 12 agents x 40 steps at a 10 m radius, over more seeds
    # than its runs pick, bounded and checked as a timed op is
    cfg = DENSE_BOUND.scenario_config(seed)
    for index in range(3):
        number = DENSE_BOUND.scenario_number(seed, index)
        output = DENSE_BOUND.bound(generate_scenario(cfg, (number,))).tobytes()
        assert DENSE_BOUND.check_op(seed, number, output) == []


def singular_or_unbanded_efim(kind):
    if kind == "anchorless":
        return assemble_position_efim(
            simple_scenario(seed=60, num_agents=5, num_anchors=0, num_steps=10)
        )
    if kind == "single-range":
        # agent 3 ranges once, to one anchor: its track can slide along the normal
        scenario = simple_scenario(seed=61, num_agents=4, num_anchors=3, num_steps=8)
        pairs = tuple(
            tuple(p for p in step if 3 not in p or (n == 0 and p == (3, 4)))
            for n, step in enumerate(scenario.pairs)
        )
        return assemble_position_efim(replace(scenario, pairs=pairs))
    # eliminated parameter chains couple every pair of steps
    rng = np.random.default_rng(62)
    intra = {k: ChainBlocks(**random_chain(rng, steps=8, state_dim=2)[0]) for k in range(3)}
    return bayesian_efim(3, 8, mobility=MobilityModel(np.eye(2)), intra_chains=intra).total


@pytest.mark.parametrize("kind", ["anchorless", "single-range", "bayesian-chains"])
def test_singular_and_unbanded_inputs_keep_the_dense_path(kind):
    j = singular_or_unbanded_efim(kind)
    assert 2 * len(j.coords) > navinfo._SWEEP_MIN_DIM
    assert navinfo._tridiagonal_blocks(j) is None
    dense = dense_speb_with_rank(j)
    for k, n in j.coords:
        assert speb_with_rank(j, k, n) == dense(k, n)
    steps = sorted({n for _, n in j.coords})
    na = len(j.coords) // len(steps)
    keep = {(k, n) for k in range(na) for n in steps[-2:]}
    try:
        want = navinfo._dense_marginal_efim(j, keep)
    except SingularBlockError:
        with pytest.raises(SingularBlockError):
            marginal_efim(j, keep)
    else:
        got = marginal_efim(j, keep)
        assert got.coords == want.coords
        assert got.matrix.tobytes() == want.matrix.tobytes()


# ---------------------------------------------------------------------------
# each joint EFIM checks its sweep domain once


def read_bound_or_window(j, kind, a, b):
    """Bytes of one read of `j`: speb_with_rank(j, a, b), or the marginal
    EFIM of all agents over steps a..b; the error type if it raises."""
    if kind == "speb":
        value, null_dim = speb_with_rank(j, a, b)
        return np.float64(value).tobytes(), null_dim
    na = sum(1 for _, n in j.coords if n == a)
    try:
        m = marginal_efim(j, [(k, n) for n in range(a, b + 1) for k in range(na)])
    except SingularBlockError as exc:
        return type(exc)
    return m.coords, m.matrix.tobytes()


@pytest.mark.parametrize("kind", ["banded", "anchorless"])
def test_each_efim_checks_its_domain_once(monkeypatch, kind):
    if kind == "banded":
        cfg = ScenarioConfig(num_agents=5, num_anchors=4, num_steps=12, connectivity=12.0, seed=5)
        j = assemble_position_efim(generate_scenario(cfg))
    else:
        j = singular_or_unbanded_efim(kind)
    checks = []
    real_check = navinfo._check_bands

    def check(start, d, b):
        checks.append(d)
        return real_check(start, d, b)

    monkeypatch.setattr(navinfo, "_check_bands", check)
    steps = sorted({n for _, n in j.coords})
    read_bound_or_window(j, "window", steps[-1], steps[-1])
    for k, n in j.coords:
        speb_with_rank(j, k, n)
    assert len(checks) == 1
    assert (j._tridiagonal is not None) == (kind == "banded")


@st.composite
def independent_efims(draw):
    """`independent_params_efim` of generated scenarios without velocity
    links: full or radius connectivity, a random-walk prior with or without
    an initial prior, or none, and per-(agent, step) information blocks."""
    na = draw(st.integers(1, 12))
    t = draw(st.integers(1, 40))
    cfg = ScenarioConfig(
        num_agents=na,
        num_anchors=draw(st.integers(0, 4)),
        num_steps=t,
        connectivity=draw(st.one_of(st.none(), st.floats(8.0, 20.0))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    initial = draw(st.sampled_from([None, np.eye(2)]))
    mobility = draw(st.sampled_from([None, MobilityModel(0.5 * np.eye(2), initial)]))
    cells = draw(st.lists(st.tuples(st.integers(0, na - 1), st.integers(0, t - 1)), max_size=4))
    priors = tuple((k, n, 2.0 * np.eye(2)) for k, n in dict.fromkeys(cells))
    j = independent_params_efim(
        replace(generate_scenario(cfg), velocity_model=None, mobility=mobility, priors=priors)
    )
    return j, na, 0, t - 1


@settings(max_examples=25, deadline=None)
@given(st.one_of(banded_efims(), independent_efims()), st.sampled_from([None, 0, 10**6]))
def test_builder_efims_check_their_layout_at_the_cutoff_of_the_read(case, min_dim):
    j, _, _, _ = case
    default_min_dim = navinfo._SWEEP_MIN_DIM
    with pytest.MonkeyPatch.context() as mp:
        if min_dim is not None:  # patched after j was built
            mp.setattr(navinfo, "_SWEEP_MIN_DIM", min_dim)
        got = j._tridiagonal
    if 2 * len(j.coords) <= (default_min_dim if min_dim is None else min_dim):
        assert got is None
    if got is not None:
        # the layout's diagonal blocks symmetrized, its links as they are
        start, d, upper = j._layout
        assert got[0] == start
        assert got[1].tobytes() == (0.5 * (d + d.transpose(0, 2, 1))).tobytes()
        assert got[2].tobytes() == upper.tobytes()


def test_a_bare_copy_of_a_builder_efim_is_read_densely_with_the_same_bounds(monkeypatch):
    cfg = ScenarioConfig(num_agents=12, num_anchors=4, num_steps=40, connectivity=10.0, seed=3)
    j = assemble_position_efim(generate_scenario(cfg, (0,)))
    bare = navinfo.JointEfim(j.coords, j.matrix)
    assert j._tridiagonal is not None
    assert bare._tridiagonal is None

    def no_sweep(*args):
        raise AssertionError("a bare matrix reached the sweep")

    monkeypatch.setattr(navinfo, "_extend_carries", no_sweep)
    last = [(k, 39) for k in range(12)]
    got, got_final = [speb(bare, 0, n) for n in range(40)], marginal_efim(bare, last).matrix
    monkeypatch.undo()
    want, want_final = [speb(j, 0, n) for n in range(40)], marginal_efim(j, last).matrix
    assert_bounds_agree(got, want)
    assert np.linalg.norm(got_final - want_final) <= 1e-9 * np.linalg.norm(want_final)
    assert_bounds_agree(block_spebs(got_final), block_spebs(want_final))


def test_links_that_are_not_negative_definite_fail_the_check_and_read_densely(monkeypatch):
    # rank-1 velocity blocks: the inter-step links are only semidefinite
    cfg = ScenarioConfig(num_agents=5, num_anchors=4, num_steps=10, vel_across=0.0, seed=8)
    j = assemble_position_efim(generate_scenario(cfg))
    assert 2 * len(j.coords) > navinfo._SWEEP_MIN_DIM
    failed = []
    real_cholesky = np.linalg.cholesky

    def cholesky(a, *args, **kwargs):
        try:
            return real_cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            failed.append(np.shape(a))
            raise

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    assert j._tridiagonal is None
    assert failed == [(9, 5, 2, 2)]  # the check's one factor of the links' agent blocks
    dense = dense_speb_with_rank(j)
    for k, n in j.coords:
        assert speb_with_rank(j, k, n) == dense(k, n)


# velocity and mobility intensities at which a link block is zero, barely
# positive, ordinary, or (coupled) singular up to round-off
LINK_SCALES = [0.0, 1e-300, 1e-12, 0.3, 5.0]


@st.composite
def link_edge_efims(draw):
    """Builder EFIMs whose links sit near the edge of negative definiteness:
    `assemble_position_efim` with velocity intensities from LINK_SCALES and
    the coupling 0 or at the PSD edge +-sqrt(along * across), and
    `independent_params_efim` with a random-walk prior whose step covariance
    is ordinary, nearly singular or of tiny or huge scale."""
    na = draw(st.integers(1, 6))
    cfg = ScenarioConfig(
        num_agents=na,
        num_anchors=draw(st.integers(0, 3)),
        num_steps=draw(st.integers(2, 8)),
        connectivity=draw(st.one_of(st.none(), st.just(8.0))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    if draw(st.booleans()):
        along, across = draw(st.sampled_from(LINK_SCALES)), draw(st.sampled_from(LINK_SCALES))
        couple = draw(st.sampled_from([0.0, 1.0, -1.0])) * math.sqrt(along * across)
        cfg = replace(cfg, vel_along=along, vel_across=across, vel_couple=couple)
        return assemble_position_efim(generate_scenario(cfg))
    c = draw(st.sampled_from([0.0, 0.3, 1.0 - 1e-12, 1.0 - 1e-15]))
    cov = draw(st.sampled_from([1e-300, 1.0, 1e150])) * np.array([[1.0, c], [c, 1.0]])
    initial = draw(st.sampled_from([None, np.eye(2)]))
    scenario = replace(generate_scenario(cfg), velocity_model=None)
    return independent_params_efim(replace(scenario, mobility=MobilityModel(cov, initial)))


@settings(max_examples=200, deadline=None)
@given(link_edge_efims())
def test_the_link_check_on_agent_blocks_decides_as_the_stacked_factor(j):
    start, d, upper = j._layout
    d = 0.5 * (d + d.transpose(0, 2, 1))
    with np.errstate(all="ignore"):  # a 1e-300 step covariance overflows the collapsed sum
        got, want = navinfo._check_bands(start, d, upper), check_bands_by_stacked_factor(start, d, upper)
    assert (got is None) == (want is None)


def test_every_bound_costs_one_forward_and_one_backward_pass(monkeypatch):
    cfg = ScenarioConfig(num_agents=12, num_anchors=4, num_steps=40, connectivity=10.0, seed=3)
    scenario = generate_scenario(cfg, (0,))
    factored, sizes = [], []
    real_cholesky, real_eigh = np.linalg.cholesky, np.linalg.eigh

    def cholesky(a, *args, **kwargs):
        if np.ndim(a) == 2:  # the sweeps factor one step at a time
            factored.append(np.shape(a))
        return real_cholesky(a, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    j = assemble_position_efim(scenario)
    for n in range(40):
        for k in range(12):
            speb(j, k, n)
    assert max(sizes) == 24  # every read took the sweep
    assert len(factored) <= 2 * (40 - 1)

    factored.clear()
    speb(assemble_position_efim(scenario), 0, 20)
    assert len(factored) == 20 + 19  # no step beyond the read's own window


@settings(max_examples=25, deadline=None)
@given(banded_efims(), st.data())
def test_reused_efim_reads_the_bytes_of_a_fresh_one(case, data):
    j, na, lo, hi = case
    steps = st.integers(j.coords[0][1], j.coords[-1][1])
    reads = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("speb"), st.integers(0, na - 1), steps),
                st.tuples(st.just("window"), steps, st.integers(0, 3)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    reads.append(("window", lo, hi - lo))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(navinfo, "_SWEEP_MIN_DIM", 0)  # sweep at every size
        for kind, a, b in reads:
            if kind == "window":
                b = min(a + b, j.coords[-1][1])
            fresh = navinfo.JointEfim._from_layout(*j._layout)
            assert read_bound_or_window(j, kind, a, b) == read_bound_or_window(fresh, kind, a, b)


def test_joint_efim_freezes_the_array_passed_in():
    matrix = np.eye(4)
    j = navinfo.JointEfim(((0, 0), (1, 0)), matrix)
    assert j.matrix is matrix  # no copy
    with pytest.raises(ValueError):
        j.matrix[0, 0] = 2.0
    with pytest.raises(ValueError):
        matrix *= 2.0  # the caller's own name cannot leave a cached check stale
    assert (matrix == np.eye(4)).all()


def test_a_failed_cholesky_factor_sends_the_read_to_the_dense_path(monkeypatch):
    cfg = ScenarioConfig(num_agents=4, num_anchors=4, num_steps=12, seed=9)
    j = assemble_position_efim(generate_scenario(cfg))
    assert j._tridiagonal is not None
    real = np.linalg.cholesky

    def cholesky(a, *args, **kwargs):
        if np.ndim(a) == 2:  # the sweeps factor one step at a time
            raise np.linalg.LinAlgError("forced")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    dense = dense_speb_with_rank(j)
    for n in range(12):
        keep = {(k, n) for k in range(4)}
        got = marginal_efim(j, keep)
        assert got.matrix.tobytes() == navinfo._dense_marginal_efim(j, keep).matrix.tobytes()
        for k in range(4):
            assert speb_with_rank(j, k, n) == dense(k, n)


@pytest.mark.parametrize("kind", ["anchorless", "single-range", "bayesian-chains"])
def test_dense_reads_share_one_eigendecomposition(monkeypatch, kind):
    j = singular_or_unbanded_efim(kind)
    want = {c: speb_with_rank(navinfo.JointEfim(j.coords, j.matrix), *c) for c in j.coords}
    sizes = []
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for c in j.coords:
        value, null_dim = speb_with_rank(j, *c)
        assert np.float64(value).tobytes() == np.float64(want[c][0]).tobytes()
        assert null_dim == want[c][1]
    assert sizes == [2 * len(j.coords)]


# ---------------------------------------------------------------------------
# an assembled EFIM lays out its dense matrix only when it is read


@pytest.mark.parametrize("builder", ["assemble", "independent"])
def test_sweep_reads_never_lay_out_the_dense_matrix(monkeypatch, builder):
    cfg = ScenarioConfig(num_agents=12, num_anchors=4, num_steps=40, connectivity=10.0, seed=3)
    scenario = generate_scenario(cfg, (0,))
    if builder == "assemble":
        want = band_matrix(
            scatter_spatial_matrices(scenario, 0, 40), velocity_matrices(scenario, 1, 40)
        )
        j = assemble_position_efim(scenario)
    else:
        mobility = MobilityModel(np.array([[1.5, 0.3], [0.3, 0.8]]))
        scenario = replace(scenario, velocity_model=None, mobility=mobility)
        spatial = scatter_spatial_matrices(scenario, 0, 40)
        want = band_matrix(spatial, np.zeros((39, *spatial.shape[1:])))
        scatter_mobility(want, 12, mobility)
        j = independent_params_efim(scenario)
    laid_out = []
    real_lay_out = navinfo._lay_out

    def lay_out(d, upper):
        laid_out.append(len(d))
        return real_lay_out(d, upper)

    monkeypatch.setattr(navinfo, "_lay_out", lay_out)
    marginal_efim(j, [(k, 39) for k in range(12)])
    for k, n in j.coords:
        speb(j, k, n)
    assert j._tridiagonal is not None
    assert laid_out and set(laid_out) == {1}  # each read laid out its own step only
    laid_out.clear()
    matrix = j.matrix
    assert laid_out == [40]
    assert matrix.tobytes() == want.tobytes()
    assert not matrix.flags.writeable
    assert j.matrix is matrix
    assert laid_out == [40]


def solve_oracle_window(j, lo, hi):
    """The sweep's marginal EFIM of all agents over steps lo..hi, its
    carries from `extend_carries_by_solve`."""
    start, d, b = j._tridiagonal[:3]
    lo, hi = lo - start, hi - start
    zero = np.zeros_like(d[0])
    head = extend_carries_by_solve([zero], d, b, lo)
    tail = extend_carries_by_solve([zero], d[::-1], b[::-1].transpose(0, 2, 1), len(d) - 1 - hi)
    size = d.shape[1]
    rows = slice(lo * size, (hi + 1) * size)
    out = j.matrix[rows, rows].copy()
    out[:size, :size] -= head
    out[-size:, -size:] -= tail
    return 0.5 * (out + out.T)


def assert_within_round_off(got, want):
    """`got` within 1e-12 of `want` relative to want's norm."""
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=25, deadline=None)
@given(banded_efims())
def test_one_cholesky_sweep_is_within_round_off_of_the_solve_oracle(case):
    j, na, lo, hi = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(navinfo, "_SWEEP_MIN_DIM", 0)  # sweep at every size
        found = j._tridiagonal
        assume(found is not None)
        start, d, b = found[:3]
        zero = np.zeros_like(d[0])
        for chain in ((d, b), (d[::-1], b[::-1].transpose(0, 2, 1))):
            want, got = [zero], [zero]
            extend_carries_by_solve(want, *chain, len(d) - 1)
            navinfo._extend_carries(got, *chain, len(d) - 1)
            assert len(got) == len(want) == len(d)
            for g, w in zip(got, want):
                assert_within_round_off(g, w)
        for a, z in {(lo, hi), (start, start), (lo, lo), (hi, hi), (start, start + len(d) - 1)}:
            want = solve_oracle_window(j, a, z)
            got = marginal_efim(j, [(k, n) for n in range(a, z + 1) for k in range(na)])
            assert_within_round_off(got.matrix, want)
            got_bounds, want_bounds = block_spebs(got.matrix), block_spebs(want)
            np.testing.assert_array_equal(np.isposinf(got_bounds), np.isposinf(want_bounds))


def test_a_read_whose_last_schur_complement_is_indefinite_takes_the_dense_path():
    cfg = ScenarioConfig(num_agents=4, num_anchors=4, num_steps=12, seed=9)
    good = assemble_position_efim(generate_scenario(cfg))
    last = {(k, 11) for k in range(4)}
    # the last step's Schur complement, shifted to one negative eigenvalue
    shift = 1.5 * np.linalg.eigvalsh(navinfo._dense_marginal_efim(good, last).matrix)[0]
    start, d, upper = good._layout
    d = d.copy()
    d[-1] -= shift * np.eye(8)
    j = navinfo.JointEfim._from_layout(start, d, upper)
    assert j._tridiagonal is not None  # the domain check passes
    got = marginal_efim(j, last)
    assert got.matrix.tobytes() == navinfo._dense_marginal_efim(j, last).matrix.tobytes()
    dense = dense_speb_with_rank(j)
    for k in range(4):
        value, null_dim = speb_with_rank(j, k, 11)
        want_value, want_null = dense(k, 11)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert null_dim == want_null


def test_unknown_coordinate_is_the_same_value_error_at_every_entry_point():
    assembled = assemble_position_efim(simple_scenario(seed=53, num_steps=2))
    bare = navinfo.JointEfim(assembled.coords, assembled.matrix)
    for j in (assembled, bare):
        reads = (
            lambda: speb(j, 5, 0),
            lambda: speb_with_rank(j, 5, 0),
            lambda: marginal_efim(j, [(5, 0)]),
        )
        for read in reads:
            with pytest.raises(ValueError, match=r"^unknown coordinates: \[\(5, 0\)\]$"):
                read()


# ---------------------------------------------------------------------------
# a builder's EFIM locates its coordinates by arithmetic and lists them on
# first read


def layout_efims():
    """A 12x40 assembled EFIM, its window from step 7 on, and an
    `independent_params_efim` with a random-walk prior, with their
    (agents, first step, end step)."""
    cfg = ScenarioConfig(num_agents=12, num_anchors=4, num_steps=40, connectivity=10.0, seed=3)
    scenario = generate_scenario(cfg, (0,))
    mobility = MobilityModel(np.array([[1.5, 0.3], [0.3, 0.8]]))
    independent = replace(scenario, velocity_model=None, mobility=mobility)
    return [
        (assemble_position_efim(scenario), 12, 0, 40),
        (assemble_position_efim(scenario, start_step=7), 12, 7, 40),
        (independent_params_efim(independent), 12, 0, 40),
    ]


@pytest.mark.parametrize("index", range(3))
def test_reading_every_bound_lists_no_coordinates(index):
    j, na, start, stop = layout_efims()[index]
    for n in range(start, stop):
        marginal_efim(j, [(k, n) for k in range(na)])
        for k in range(na):
            speb_with_rank(j, k, n)
    assert "coords" not in j.__dict__ and "_pos" not in j.__dict__
    assert j.coords == navinfo.position_coords(na, stop, start)
    assert [j._index(c) for c in j.coords] == list(range(na * (stop - start)))


@pytest.mark.parametrize("index", range(3))
def test_numpy_integer_coordinates_name_their_blocks(index):
    j, na, start, stop = layout_efims()[index]
    last = [(k, stop - 1) for k in range(na)]
    want = marginal_efim(j, last)
    got = marginal_efim(j, [(np.int64(k), np.int32(n)) for k, n in last])
    assert (got.coords, got.matrix.tobytes()) == (want.coords, want.matrix.tobytes())
    for k, n in [(0, start), (na - 1, stop - 1), (3, start + 5)]:
        assert j.rows(np.int64(k), np.uint8(n)) == j.rows(k, n)
        assert speb_with_rank(j, np.int16(k), np.int64(n)) == speb_with_rank(j, k, n)


@pytest.mark.parametrize("index", range(3))
def test_unknown_coordinates_raise_the_same_error(index):
    j, na, start, stop = layout_efims()[index]
    bare = navinfo.JointEfim(j.coords, j.matrix)  # located through a dict
    for bad in [(na, start), (-1, start), (0, start - 1), (0, stop), (0.5, start), (0, start + 0.5)]:
        message = f"unknown coordinates: {[bad]}"
        for efim in (j, bare):
            with pytest.raises(ValueError) as rows_error:
                efim.rows(*bad)
            with pytest.raises(ValueError) as speb_error:
                speb(efim, *bad)
            with pytest.raises(ValueError) as marginal_error:
                marginal_efim(efim, [(0, start), bad])
            for error in (rows_error, speb_error, marginal_error):
                assert str(error.value) == message


# ---------------------------------------------------------------------------
# the bits of the dense-bound workload's reads


DENSE_DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data", "dense_bound_digests.json")


def dense_bound_digests() -> dict[str, str]:
    """sha256 over `DENSE_BOUND.bound` of the first 3 observable scenarios
    of seeds 0..19, and over every `speb_with_rank` of two 12x40
    `independent_params_efim` EFIMs with a random-walk prior (full
    connectivity, and a radius graph with an initial prior)."""
    bounds = hashlib.sha256()
    for seed in range(20):
        cfg = DENSE_BOUND.scenario_config(seed)
        for index in range(3):
            scenario = generate_scenario(cfg, (DENSE_BOUND.scenario_number(seed, index),))
            bounds.update(DENSE_BOUND.bound(scenario).tobytes())
    ranks = hashlib.sha256()
    for connectivity, initial in ((None, None), (10.0, np.eye(2))):
        cfg = ScenarioConfig(num_agents=12, num_anchors=4, num_steps=40, connectivity=connectivity, seed=3)
        mobility = MobilityModel(np.array([[1.5, 0.3], [0.3, 0.8]]), initial)
        j = independent_params_efim(replace(generate_scenario(cfg), velocity_model=None, mobility=mobility))
        for n in range(40):
            for k in range(12):
                value, null_dim = speb_with_rank(j, k, n)
                ranks.update(np.float64(value).tobytes() + np.int64(null_dim).tobytes())
    return {"dense_bound": bounds.hexdigest(), "independent_params_speb_with_rank": ranks.hexdigest()}


def test_dense_bound_reads_keep_their_bits():
    with open(DENSE_DIGESTS_PATH, encoding="utf-8") as fh:
        assert dense_bound_digests() == json.load(fh)
