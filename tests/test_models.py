import math

import numpy as np
import pytest

from navlim.geom2d import r_dir, rotation
from navlim.models import (
    GeometryError,
    MobilityModel,
    RangeModel,
    Scenario,
    ScenarioGeometry,
    VelocityModel,
    range_intensity_from_sigmas,
    range_intensity_via_reduction,
    spatial_block,
    temporal_block,
    velocity_intensities,
)
from navlim.navinfo import bayesian_efim
from navlim.simkit import ScenarioConfig, build_scenario
from oracles import fd_hessian


def two_node_geometry(p0=(0.0, 0.0), p1=(1.0, 0.0)):
    paths = np.array([[p0], [p1]], dtype=float)  # two nodes, one step
    return ScenarioGeometry(paths, num_agents=1)


def walk_geometry(points):
    paths = np.asarray(points, dtype=float)[None, :, :]
    return ScenarioGeometry(paths, num_agents=1)


def pair_block(geom, k, j, n, model):
    """`spatial_block` of the single measured pair (k, j) at step n."""
    weights = np.zeros((1, 1, geom.num_agents, geom.num_nodes))
    weights[0, 0, k, j] = model.intensity_at(k, j, n)
    return spatial_block(geom.paths[None], weights, n)[0, 0, k, j]


def velocity_block(geom, k, n, model):
    """`temporal_block` of agent k's transition into step n."""
    coeffs = model.coeffs_at(np.arange(geom.num_agents), n)
    return temporal_block(geom.paths[None], coeffs[None, None], n)[0, 0, k]


# ---------------------------------------------------------------------------
# ranging


def test_spatial_block_along_x():
    geom = two_node_geometry()
    blk = pair_block(geom, 0, 1, 0, RangeModel(intensity=5.0))
    np.testing.assert_allclose(blk, [[5.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_spatial_block_zero_intensity():
    geom = two_node_geometry()
    assert not pair_block(geom, 0, 1, 0, RangeModel(intensity=0.0)).any()


def test_spatial_block_derived_intensity():
    geom = two_node_geometry(p1=(0.0, 2.0))
    model = RangeModel(sigma_range=0.4, sigma_bias=0.3)
    blk = pair_block(geom, 0, 1, 0, model)
    # u = (0, 1) exactly, so u u^T has exact zeros where r_dir(pi / 2) has
    # cos(pi / 2) round-off
    np.testing.assert_allclose(blk, [[0.0, 0.0], [0.0, 4.0]], rtol=1e-12, atol=0.0)


def test_spatial_block_coincident_nodes():
    geom = two_node_geometry(p1=(0.0, 0.0))
    with pytest.raises(GeometryError, match="undefined direction"):
        pair_block(geom, 0, 1, 0, RangeModel(intensity=1.0))


def test_range_intensity_reduction_matches_closed_form():
    for sr, sb in [(0.4, 0.3), (1.0, 0.0), (0.2, 5.0), (2.0, math.inf)]:
        closed = range_intensity_from_sigmas(sr, sb)
        via = range_intensity_via_reduction(sr, sb)
        assert via == pytest.approx(closed, rel=1e-12, abs=1e-15)


def test_unobservable_bias_kills_ranging_information():
    assert range_intensity_via_reduction(0.5, math.inf) == pytest.approx(0.0, abs=1e-15)


def test_range_model_validation():
    with pytest.raises(ValueError):
        RangeModel()
    with pytest.raises(ValueError):
        RangeModel(intensity=1.0, sigma_range=1.0)
    with pytest.raises(ValueError):
        RangeModel(intensity=-1.0)


@pytest.mark.parametrize(
    "make",
    [
        range_intensity_from_sigmas,
        range_intensity_via_reduction,
        lambda sigma_range, sigma_bias: RangeModel(sigma_range=sigma_range, sigma_bias=sigma_bias),
    ],
    ids=["closed-form", "reduction", "range-model"],
)
@pytest.mark.parametrize(
    "sigmas, message",
    [((0.0, 0.1), "sigma_range must be positive"), ((0.5, -0.1), "sigma_bias must be >= 0")],
    ids=["range", "bias"],
)
def test_sigma_checks(make, sigmas, message):
    with pytest.raises(ValueError, match=message):
        make(*sigmas)


def test_range_model_table_override():
    model = RangeModel(intensity=5.0, table={(0, 1, 2): 7.0})
    assert model.intensity_at(0, 1, 2) == 7.0
    assert model.intensity_at(1, 0, 2) == 7.0  # key normalized to k < j
    assert model.intensity_at(0, 1, 0) == 5.0


# ---------------------------------------------------------------------------
# velocity


def test_temporal_block_isotropic():
    geom = walk_geometry([(0.0, 0.0), (0.7, -0.4)])
    blk = velocity_block(geom, 0, 1, VelocityModel(5.0, 5.0))
    np.testing.assert_allclose(blk, 5.0 * np.eye(2), atol=1e-12)


def test_temporal_block_rank1_along_x():
    geom = walk_geometry([(0.0, 0.0), (2.0, 0.0)])
    blk = velocity_block(geom, 0, 1, VelocityModel(4.0, 0.0))
    np.testing.assert_allclose(blk, [[4.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_temporal_block_rotated_basis_oracle():
    # Motion at 45 degrees: the block is the intensity matrix conjugated by
    # the step rotation.
    geom = walk_geometry([(0.0, 0.0), (1.0, 1.0)])
    blk = velocity_block(geom, 0, 1, VelocityModel(2.0, 1.0, 0.5))
    rot = rotation(math.pi / 4)
    expect = rot @ np.array([[2.0, 0.5], [0.5, 1.0]]) @ rot.T
    np.testing.assert_allclose(blk, expect, rtol=1e-12)


def test_temporal_block_equivariance():
    rng = np.random.default_rng(2)
    model = VelocityModel(3.0, 1.0, 0.8)
    for _ in range(50):
        step = rng.uniform(-2, 2, size=2)
        while np.linalg.norm(step) < 0.1:
            step = rng.uniform(-2, 2, size=2)
        theta = rng.uniform(0, 2 * math.pi)
        rot = rotation(theta)
        geom = walk_geometry([(0.0, 0.0), tuple(step)])
        geom_rot = walk_geometry([(0.0, 0.0), tuple(rot @ step)])
        blk = velocity_block(geom, 0, 1, model)
        blk_rot = velocity_block(geom_rot, 0, 1, model)
        np.testing.assert_allclose(blk_rot, rot @ blk @ rot.T, atol=1e-12)


def test_temporal_block_zero_displacement():
    geom = walk_geometry([(1.0, 1.0), (1.0, 1.0)])
    np.testing.assert_allclose(
        velocity_block(geom, 0, 1, VelocityModel(5.0, 5.0)), 5.0 * np.eye(2)
    )
    with pytest.raises(GeometryError, match="zero displacement"):
        velocity_block(geom, 0, 1, VelocityModel(5.0, 4.0))


def test_temporal_block_needs_a_transition_into_a_later_step():
    paths = np.zeros((1, 1, 2, 2))
    with pytest.raises(ValueError, match=r"^step displacement needs n >= 1$"):
        temporal_block(paths, np.ones((1, 1, 1, 3)), first=0)


def test_velocity_model_psd_validation():
    with pytest.raises(ValueError):
        VelocityModel(1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        VelocityModel(-1.0, 1.0)
    VelocityModel(2.0, 2.0, 2.0)  # boundary case is fine


def test_velocity_intensities_from_local_info():
    local = np.array([[3.0, 0.6], [0.6, 2.0]])
    along, across, couple = velocity_intensities(local, step_distance=2.0)
    assert along == 3.0
    assert couple == 0.3
    assert across == 0.5
    with pytest.raises(GeometryError):
        velocity_intensities(local, step_distance=0.0)


def test_temporal_block_is_psd_when_triple_is_psd():
    rng = np.random.default_rng(3)
    for _ in range(100):
        along, across = rng.uniform(0, 5, size=2)
        couple = rng.uniform(-1, 1) * math.sqrt(along * across)
        model = VelocityModel(along, across, couple)
        geom = walk_geometry([(0.0, 0.0), tuple(rng.uniform(-2, 2, size=2) + 3.0)])
        blk = velocity_block(geom, 0, 1, model)
        assert np.linalg.eigvalsh(blk).min() > -1e-12


# ---------------------------------------------------------------------------
# mobility


def _assemble_mobility(model, t):
    """The stripe of the random-walk prior that `bayesian_efim` lays out for
    one agent over t steps."""
    return bayesian_efim(1, t, mobility=model).mobility


def test_mobility_blocks_two_steps():
    info = _assemble_mobility(MobilityModel(np.eye(2)), 2)
    np.testing.assert_array_equal(info, [[1, 0, -1, 0], [0, 1, 0, -1], [-1, 0, 1, 0], [0, -1, 0, 1]])


def test_mobility_blocks_single_step_empty():
    info = _assemble_mobility(MobilityModel(np.eye(2)), 1)
    assert info.shape == (2, 2) and not info.any()


def test_mobility_blocks_match_fd_hessian():
    t = 4
    cov = 0.25 * np.eye(2)
    info = _assemble_mobility(MobilityModel(cov), t)
    cov_inv = np.linalg.inv(cov)

    def neg_log_density(x):
        x = x.reshape(t, 2)
        total = 0.0
        for n in range(t - 1):
            d = x[n + 1] - x[n]
            total += 0.5 * d @ cov_inv @ d
        return total

    oracle = fd_hessian(neg_log_density, np.zeros(2 * t))
    np.testing.assert_allclose(info, oracle, rtol=1e-9, atol=1e-9)
    # 0.25 I covariance -> multiples of 4 I on the stripe
    np.testing.assert_array_equal(info[:2, :2], 4.0 * np.eye(2))
    np.testing.assert_array_equal(info[2:4, 2:4], 8.0 * np.eye(2))


def test_mobility_nullspace_is_translations():
    info = _assemble_mobility(MobilityModel(1.3 * np.eye(2)), 5)
    w = np.linalg.eigvalsh(info)
    assert (w > -1e-10).all()
    assert (np.abs(w) < 1e-10).sum() == 2
    shift = np.tile([1.0, 0.0], 5)
    np.testing.assert_allclose(info @ shift, 0.0, atol=1e-12)


def test_mobility_initial_prior_restores_rank():
    model = MobilityModel(np.eye(2), initial_prior=2.0 * np.eye(2))
    info = _assemble_mobility(model, 3)
    assert np.linalg.eigvalsh(info).min() > 1e-6


def test_mobility_singular_covariance_rejected():
    with pytest.raises(ValueError, match="singular"):
        _assemble_mobility(MobilityModel(np.diag([1.0, 0.0])), 3)


def test_mobility_scalar_covariance_promoted():
    model = MobilityModel(np.array(2.0))
    np.testing.assert_array_equal(model.step_cov, 2.0 * np.eye(2))


def test_mobility_rejects_a_step_cov_that_is_neither_scalar_nor_2x2():
    with pytest.raises(ValueError, match=r"^step_cov must be scalar or 2x2$"):
        MobilityModel(np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "cov, message",
    [
        (np.diag([1.0, 0.0]), "singular or indefinite"),
        (np.diag([1.0, -1.0]), "singular or indefinite"),
        (-2.0, "singular or indefinite"),
        (np.array([[1.0, 2.0], [0.0, 1.0]]), "singular or indefinite"),  # symmetrized: indefinite
        (math.nan, "non-finite"),
        (np.array([[1.0, 0.0], [0.0, math.inf]]), "non-finite"),
    ],
)
def test_mobility_rejects_a_step_cov_that_is_not_positive_definite_when_built(cov, message):
    with pytest.raises(ValueError, match=message):
        MobilityModel(cov)


@pytest.mark.parametrize(
    "prior",
    [3.0, np.eye(3), np.ones(2), np.array([[1.0, 0.0], [0.0, math.nan]]), np.full((2, 2), math.inf)],
)
def test_mobility_rejects_an_initial_prior_that_is_not_a_finite_2x2(prior):
    with pytest.raises(ValueError, match=r"^initial_prior must be a finite 2x2 block$"):
        MobilityModel(np.eye(2), initial_prior=prior)


def test_mobility_keeps_its_initial_prior_as_a_float_block():
    model = MobilityModel(np.eye(2), initial_prior=[[2, 0], [0, 1]])
    assert model.initial_prior.dtype == float
    np.testing.assert_array_equal(model.initial_prior, np.diag([2.0, 1.0]))


# ---------------------------------------------------------------------------
# geometry and scenario plumbing


@pytest.mark.parametrize(
    "paths, num_agents, message",
    [
        (np.zeros((2, 3)), 1, "paths must have shape"),
        (np.zeros((2, 3, 3)), 1, "paths must have shape"),
        (np.zeros((2, 3, 2)), 3, "num_agents out of range"),
        (np.zeros((2, 3, 2)), -1, "num_agents out of range"),
    ],
)
def test_geometry_validation(paths, num_agents, message):
    with pytest.raises(ValueError, match=message):
        ScenarioGeometry(paths, num_agents=num_agents)


def test_geometry_properties():
    paths = np.zeros((3, 2, 2))
    paths[0, :, 0] = [0.0, 1.0]
    paths[1] = [[3.0, 0.0], [3.0, 0.0]]
    paths[2] = [[0.0, 4.0], [0.0, 4.0]]
    geom = ScenarioGeometry(paths, num_agents=1)
    assert geom.num_anchors == 2
    assert (geom.num_nodes, geom.num_steps) == (3, 2)


def listed_pairs(paths, num_agents, radius=None):
    """`build_scenario`'s pair listing of node paths (nodes, T, 2)."""
    nodes, t = paths.shape[:2]
    cfg = ScenarioConfig(
        num_agents=num_agents, num_anchors=nodes - num_agents, num_steps=t, connectivity=radius
    )
    return build_scenario(cfg, paths).pairs


def test_full_and_radius_pairs():
    paths = np.zeros((3, 1, 2))
    paths[1, 0] = [1.0, 0.0]
    paths[2, 0] = [10.0, 0.0]
    assert listed_pairs(paths, 2) == (((0, 1), (0, 2), (1, 2)),)
    assert listed_pairs(paths, 2, 2.0) == (((0, 1),),)


def test_scenario_validation():
    geom = ScenarioGeometry(np.zeros((2, 1, 2)), num_agents=1)
    with pytest.raises(ValueError):
        Scenario(geometry=geom, pairs=())  # wrong number of steps
    with pytest.raises(ValueError):
        Scenario(geometry=geom, pairs=(((1, 0),),))  # k >= j
    with pytest.raises(ValueError):
        Scenario(geometry=geom, pairs=((),), priors=((5, 0, np.eye(2)),))
    with pytest.raises(ValueError, match=r"^prior at unknown step 1$"):
        Scenario(geometry=geom, pairs=((),), priors=((0, 1, np.eye(2)),))
    with pytest.raises(ValueError, match=r"^prior blocks must be 2x2$"):
        Scenario(geometry=geom, pairs=((),), priors=((0, 0, np.eye(3)),))
    with pytest.raises(ValueError, match=r"^pairs must be \(k, j\) index tuples$"):
        Scenario(geometry=geom, pairs=(((0, 1, 0),),))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite_priors(value):
    geom = ScenarioGeometry(np.zeros((2, 2, 2)), num_agents=1)
    block = np.eye(2)
    block[1, 0] = value
    with pytest.raises(ValueError, match=r"^non-finite prior on agent 0 at step 1$"):
        Scenario(geometry=geom, pairs=((), ()), priors=((0, 0, np.eye(2)), (0, 1, block)))


def _radius_pairs_per_pair(paths, num_agents, radius):
    return tuple(
        tuple(
            (k, j)
            for k in range(num_agents)
            for j in range(k + 1, paths.shape[0])
            if np.linalg.norm(paths[j, n] - paths[k, n]) <= radius
        )
        for n in range(paths.shape[1])
    )


def test_radius_pairs_matches_per_pair_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        nodes = int(rng.integers(1, 9))
        na = int(rng.integers(0, nodes + 1))
        paths = rng.uniform(0.0, 20.0, size=(nodes, int(rng.integers(1, 6)), 2))
        radius = float(rng.uniform(0.5, 25.0))
        assert listed_pairs(paths, na, radius) == _radius_pairs_per_pair(paths, na, radius)


def test_radius_pairs_keeps_a_pair_exactly_at_the_radius():
    # 3-4-5 triangles: every distance below is exact in floating point
    paths = np.array([[[0.0, 0.0]], [[3.0, 4.0]], [[-6.0, 8.0]], [[5.0, 0.0]]])
    assert listed_pairs(paths, 2, 5.0) == (((0, 1), (0, 3), (1, 3)),)
    assert listed_pairs(paths, 2, np.nextafter(5.0, 0.0)) == (((1, 3),),)
    assert listed_pairs(paths, 2, 10.0) == _radius_pairs_per_pair(paths, 2, 10.0)
    assert (0, 2) in listed_pairs(paths, 2, 10.0)[0]


def test_scenario_validation_names_the_first_bad_pair():
    geom = ScenarioGeometry(np.zeros((3, 2, 2)), num_agents=1)
    with pytest.raises(ValueError, match=r"^bad pair \(0, 3\) at step 1$"):
        Scenario(geometry=geom, pairs=(((0, 1),), ((0, 2), (0, 3), (2, 1))))
    with pytest.raises(ValueError, match=r"^pair \(1, 2\) has no agent side$"):
        Scenario(geometry=geom, pairs=(((0, 1), (1, 2)), ((0, 5),)))
    with pytest.raises(ValueError, match=r"^bad pair \(2, 1\) at step 0$"):
        Scenario(geometry=geom, pairs=(((2, 1), (1, 2)), ()))


# ---------------------------------------------------------------------------
# the vectorized step kernel against per-pair formulas


def _close_blocks(got, want):
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scale, 1e-300))


def test_spatial_block_vectorized_matches_per_pair_formula():
    rng = np.random.default_rng(5)
    paths = rng.uniform(-30.0, 30.0, size=(7, 4, 2))
    geom = ScenarioGeometry(paths, num_agents=4)
    table = {(0, 5, 2): 0.25, (1, 3, 0): 9.0}
    n, k, j = np.meshgrid(np.arange(4), np.arange(4), np.arange(7), indexing="ij")
    for model in (
        RangeModel(intensity=3.0),
        RangeModel(sigma_range=0.4, sigma_bias=0.3),
        RangeModel(intensity=2.0, table=table),
    ):
        weights = np.where(k != j, model.intensity_at(k, j, n), 0.0)
        got = spatial_block(paths[None], weights[None])[0]
        assert got.shape == (4, 4, 7, 2, 2)
        for step, a, p in zip(n.flat, k.flat, j.flat):
            if a == p:
                assert not got[step, a, p].any()
                continue
            v = paths[p, step] - paths[a, step]
            want = model.intensity_at(a, p, step) * r_dir(math.atan2(v[1], v[0]))
            _close_blocks(got[step, a, p], want)
            # one pair alone, and the pair seen from its other end, bitwise
            np.testing.assert_array_equal(got[step, a, p], pair_block(geom, a, p, step, model))
            if p < 4:
                np.testing.assert_array_equal(got[step, a, p], got[step, p, a])


@pytest.mark.parametrize(
    "triple",
    [(5.0, 5.0, 0.0), (4.0, 0.0, 0.0), (2.0, 1.0, 0.5), (1.0, 9.0, -2.5), (3.0, 3.0, 1.0)],
)
def test_temporal_block_vectorized_matches_rotation_formula(triple):
    rng = np.random.default_rng(8)
    paths = rng.uniform(-10.0, 10.0, size=(3, 5, 2))
    geom = ScenarioGeometry(paths, num_agents=3)
    model = VelocityModel(*triple, table={(1, 2): (6.0, 0.5, 1.0), (2, 4): (2.0, 2.0, 0.0)})
    n, k = np.meshgrid(np.arange(1, 5), np.arange(3), indexing="ij")
    got = temporal_block(paths[None], model.coeffs_at(k, n)[None], 1)[0]
    assert got.shape == (4, 3, 2, 2)
    for b in range(4):
        for a in range(3):
            along, across, couple = model.coeffs_at(k[b, a], n[b, a])
            v = paths[k[b, a], n[b, a]] - paths[k[b, a], n[b, a] - 1]
            rot = rotation(math.atan2(v[1], v[0]))
            want = rot @ np.array([[along, couple], [couple, across]]) @ rot.T
            _close_blocks(got[b, a], want)
            # one transition alone gives the same bits as the stack
            np.testing.assert_array_equal(got[b, a], velocity_block(geom, a, n[b, a], model))
            if couple == 0.0 and along == across:
                np.testing.assert_array_equal(got[b, a], along * np.eye(2))


def test_model_lookups_broadcast_with_table_overrides():
    model = RangeModel(intensity=5.0, table={(0, 1, 2): 7.0})
    np.testing.assert_array_equal(
        model.intensity_at(np.array([0, 1, 0]), np.array([1, 0, 1]), np.array([2, 2, 0])),
        [7.0, 7.0, 5.0],
    )
    velocity = VelocityModel(1.0, 2.0, 0.5, table={(1, 3): (4.0, 4.0, 0.0)})
    np.testing.assert_array_equal(
        velocity.coeffs_at(np.array([1, 1]), 3), [[4.0, 4.0, 0.0], [4.0, 4.0, 0.0]]
    )
    np.testing.assert_array_equal(velocity.coeffs_at(0, 3), [1.0, 2.0, 0.5])
