"""The step-matrix kernel against the per-pair scatter reference.

Every assembly path (joint EFIM, per-step matrices, the independent-
parameter EFIM) must give the same bytes as `oracles.scatter_spatial_matrices`
plus `oracles.velocity_matrices` for the sorted, duplicate-free pair listings
that `simkit.build_scenario` produces, plus `oracles.scatter_mobility`
for the random-walk prior; signed zeros count. Unsorted or repeated listings
may sum in another order and are held to 1e-12 of the matrix scale.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from navlim.models import (
    MobilityModel,
    RangeModel,
    Scenario,
    VelocityModel,
)
from navlim.navinfo import (
    assemble_position_efim,
    bayesian_efim,
    independent_params_efim,
    spatial_step_matrix,
    temporal_step_blocks,
)
from navlim import navinfo, simkit
from navlim.simkit import ScenarioConfig, generate_scenario
from oracles import (
    band_matrix,
    scatter_mobility,
    scatter_spatial_matrices,
    scenario_chunk,
    velocity_matrices,
)

_TRIPLES = [(5.0, 5.0, 0.0), (4.0, 1.0, 0.0), (2.0, 1.0, 0.5), (1.0, 9.0, -2.5), (0.0, 0.0, 0.0)]


@st.composite
def scenarios(draw):
    """A scenario of `scenarios_of` with a random shape, and a start step."""
    t = draw(st.integers(1, 6))
    scenario = draw(scenarios_of(draw(st.integers(1, 6)), draw(st.integers(0, 4)), t))
    return scenario, draw(st.integers(0, t - 1))


@st.composite
def scenarios_of(draw, na, nb, t):
    """Generated scenarios with full or radius connectivity (radii down to
    ones that isolate agents), 0-4 anchors, a direct or sigma-derived range
    intensity with table overrides, priors (some on one coordinate), and an
    isotropic, anisotropic or coupled velocity model with table overrides."""
    cfg = ScenarioConfig(
        num_agents=na,
        num_anchors=nb,
        num_steps=t,
        connectivity=draw(st.sampled_from([None, 0.5, 3.0, 8.0, 15.0])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    scenario = generate_scenario(cfg, (draw(st.integers(0, 99)),))
    nodes = na + nb
    table = {}
    for k, j, n, value in draw(
        st.lists(
            st.tuples(
                st.integers(0, na - 1),
                st.integers(0, nodes - 1),
                st.integers(0, t - 1),
                st.sampled_from([0.0, 0.25, 40.0]),
            ),
            max_size=4,
        )
    ):
        if k != j:
            table[(min(k, j), max(k, j), n)] = value
    if draw(st.booleans()):
        range_model = RangeModel(intensity=draw(st.sampled_from([0.0, 5.0, 0.3])), table=table)
    else:
        range_model = RangeModel(sigma_range=0.4, sigma_bias=0.3, table=table)
    vel_table = {
        (k, n): _TRIPLES[i]
        for k, n, i in draw(
            st.lists(
                st.tuples(
                    st.integers(0, na - 1),
                    st.integers(1, max(t - 1, 1)),
                    st.integers(0, len(_TRIPLES) - 1),
                ),
                max_size=3,
            )
        )
    }
    velocity_model = VelocityModel(*draw(st.sampled_from(_TRIPLES)), table=vel_table)
    priors = tuple(
        (k, n, scale * np.array([[1.0, c], [c, 2.0]]))
        for k, n, c, scale in draw(
            st.lists(
                st.tuples(
                    st.integers(0, na - 1),
                    st.integers(0, t - 1),
                    st.floats(-0.9, 0.9),
                    st.sampled_from([0.5, 1e12]),
                ),
                max_size=3,
            )
        )
    )
    return replace(
        scenario, range_model=range_model, velocity_model=velocity_model, priors=priors
    )


def _reference_efim(scenario, start: int) -> np.ndarray:
    t = scenario.geometry.num_steps
    return band_matrix(
        scatter_spatial_matrices(scenario, start, t), velocity_matrices(scenario, start + 1, t)
    )


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_assembly_is_bytewise_the_scatter_reference(case):
    scenario, start = case
    t = scenario.geometry.num_steps
    got = assemble_position_efim(scenario, start_step=start).matrix
    assert got.tobytes() == _reference_efim(scenario, start).tobytes()
    spatial = scatter_spatial_matrices(scenario, 0, t)
    velocity = velocity_matrices(scenario, 1, t)
    na = scenario.geometry.num_agents
    for n in range(t):
        assert spatial_step_matrix(scenario, n).tobytes() == spatial[n].tobytes()
        if n > 0:
            blocks = temporal_step_blocks(scenario, n)
            for k in range(na):
                rows = slice(2 * k, 2 * k + 2)
                assert blocks[k].tobytes() == velocity[n - 1][rows, rows].tobytes()


mobility_models = st.sampled_from(
    [
        None,
        MobilityModel(0.7 * np.eye(2)),
        MobilityModel(np.array([[1.5, 0.3], [0.3, 0.8]])),
        MobilityModel(np.array([[1.5, 0.3], [0.3, 0.8]]), np.array([[2.0, 0.1], [0.1, 1.0]])),
    ]
)


@st.composite
def state_infos(draw, na, t):
    """Per-(agent, step) information blocks, some at pinning scale."""
    return {
        (k, n): scale * np.array([[3.0, c], [c, 1.0]])
        for k, n, c, scale in draw(
            st.lists(
                st.tuples(
                    st.integers(0, na - 1),
                    st.integers(0, t - 1),
                    st.floats(-1.0, 1.0),
                    st.sampled_from([1.0, 1e12]),
                ),
                max_size=3,
            )
        )
    }


@settings(max_examples=50, deadline=None)
@given(scenarios(), mobility_models, st.data())
def test_independent_params_efim_is_bytewise_the_scatter_reference(case, mobility, data):
    scenario, _ = case
    scenario = replace(scenario, velocity_model=None, mobility=mobility)
    na, t = scenario.geometry.num_agents, scenario.geometry.num_steps
    state_info = data.draw(state_infos(na, t))
    spatial = scatter_spatial_matrices(scenario, 0, t)
    want = band_matrix(spatial, np.zeros((max(t - 1, 0), *spatial.shape[1:])))
    for (k, n), blk in state_info.items():
        rows = slice(2 * (n * na + k), 2 * (n * na + k) + 2)
        want[rows, rows] += blk
    if mobility is not None:
        scatter_mobility(want, na, mobility)
    got = independent_params_efim(scenario, state_info).matrix
    assert got.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), mobility_models)
def test_bayesian_mobility_is_bytewise_the_scatter_reference(na, t, mobility):
    want = np.zeros((2 * na * t, 2 * na * t))
    if mobility is not None:
        scatter_mobility(want, na, mobility)
    assert bayesian_efim(na, t, mobility=mobility).mobility.tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(scenarios(), st.integers(0, 2), st.randoms(use_true_random=False))
def test_replaced_scenarios_resolve_their_kernel_inputs_afresh(case, which, rand):
    scenario, _ = case
    if which == 0:
        steps = [list(step) for step in scenario.pairs]
        for step in steps:
            rand.shuffle(step)
        changed = replace(scenario, pairs=tuple(tuple(step[: len(step) // 2]) for step in steps))
    elif which == 1:
        changed = replace(scenario, range_model=RangeModel(intensity=rand.uniform(0.0, 9.0)))
    else:
        changed = replace(scenario, velocity_model=VelocityModel(2.0, 1.0, rand.uniform(-1.0, 1.0)))
    fresh = Scenario(
        changed.geometry,
        changed.pairs,
        changed.range_model,
        changed.velocity_model,
        changed.mobility,
        changed.priors,
    )
    for name in ("weights", "coeffs"):
        got, want = getattr(changed, name), getattr(fresh, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    t = scenario.geometry.num_steps
    assert changed.weights.shape == (t, *scenario.weights.shape[1:])
    assert changed.coeffs.shape == (t - 1, scenario.geometry.num_agents, 3)


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.randoms(use_true_random=False), st.integers(0, 3))
def test_unsorted_and_repeated_listings_agree_within_round_off(case, rand, repeats):
    scenario, start = case
    pairs = []
    for step in scenario.pairs:
        listing = list(step) + list(step[:repeats])
        rand.shuffle(listing)
        pairs.append(tuple(listing))
    scenario = replace(scenario, pairs=tuple(pairs))
    got = assemble_position_efim(scenario, start_step=start).matrix
    want = _reference_efim(scenario, start)
    scale = np.abs(want).max(initial=0.0)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


@st.composite
def chunks(draw):
    t = draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 6)), draw(st.integers(0, 4)), t)
    return draw(st.lists(scenarios_of(*shape), min_size=1, max_size=4))


@settings(max_examples=75, deadline=None)
@given(chunks())
def test_chunk_kernel_is_bytewise_the_scatter_reference_per_trial(scenarios):
    chunk = scenario_chunk(scenarios)
    full, anchors = navinfo._spatial_matrices(
        chunk.paths, chunk.weights, priors=chunk.priors, anchors=True
    )
    velocity = navinfo._temporal_matrices(chunk.paths, chunk.coeffs)
    t = scenarios[0].geometry.num_steps
    for c, scenario in enumerate(scenarios):
        assert full[c].tobytes() == scatter_spatial_matrices(scenario, 0, t).tobytes()
        want = scatter_spatial_matrices(scenario, 0, t, anchors_only=True)
        assert anchors[c].tobytes() == want.tobytes()
        assert velocity[c].tobytes() == velocity_matrices(scenario, 1, t).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 4),
    st.integers(1, 6),
    st.sampled_from([None, 0.5, 4.0, 12.0, "tie"]),
    st.integers(0, 2**31 - 1),
)
def test_drawn_chunk_is_the_chunk_of_generated_scenarios(na, nb, t, radius, seed):
    cfg = ScenarioConfig(
        num_agents=na, num_anchors=nb, num_steps=t, seed=seed,
        vel_along=3.0, vel_across=1.0, vel_couple=0.5,
    )
    entropies = [(na, trial) for trial in range(3)]
    tie = radius == "tie" and na + nb > 1
    if radius == "tie":  # agent 0 of the first trial meets the last node at the radius
        paths = simkit._draw_paths(cfg, entropies[0])
        radius = float(np.linalg.norm(paths[-1, 0] - paths[0, 0])) if tie else 0.5
    cfg = replace(cfg, connectivity=radius)
    drawn = simkit._drawn_chunk(cfg, entropies)
    if tie:
        assert drawn.weights[0, 0, 0, -1] == cfg.range_intensity
    built = scenario_chunk([generate_scenario(cfg, e) for e in entropies])
    for field in ("paths", "weights", "coeffs"):
        assert getattr(drawn, field).tobytes() == getattr(built, field).tobytes()
    assert drawn.priors == built.priors
