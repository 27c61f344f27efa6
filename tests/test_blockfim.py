import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navlim.blockfim import (
    ChainBlocks,
    SingularBlockError,
    _reduce,
    block_diag,
    eliminate_block,
    eliminate_hmm_chain,
)
from navlim.navinfo import JointEfim, marginal_efim
from oracles import (
    dense_chain_reduction,
    eliminate_hmm_chain_forward,
    random_chain,
    random_spd,
    reduce_leaks_by_matrix,
)


def inverse_block_oracle(full: np.ndarray, size: int) -> np.ndarray:
    """Schur complement onto the leading `size` coordinates, by inverting the
    kept block of the full inverse."""
    return np.linalg.inv(np.linalg.inv(full)[:size, :size])


def split(full: np.ndarray, size: int):
    """(target, cross, nuisance) blocks of a reduction onto the leading
    `size` coordinates."""
    return full[:size, :size], full[:size, size:], full[size:, size:]


# ---------------------------------------------------------------------------
# Schur complement by eliminate_block


def test_schur_scalar_example():
    out = eliminate_block(*split(np.array([[2.0, 1.0], [1.0, 2.0]]), 1))
    assert out == pytest.approx(np.array([[1.5]]))


def test_schur_block_diagonal_is_identity_on_kept():
    a = random_spd(np.random.default_rng(0), 2)
    c = random_spd(np.random.default_rng(1), 2)
    out = eliminate_block(*split(block_diag([a, c]), 2))
    np.testing.assert_allclose(out, a)


def test_schur_matches_dense_inverse_block():
    rng = np.random.default_rng(42)
    for _ in range(50):
        full = random_spd(rng, 6)
        out = eliminate_block(*split(full, 2))
        np.testing.assert_allclose(
            out, inverse_block_oracle(full, 2), rtol=1e-10, atol=1e-10
        )


def test_schur_preserves_psd():
    rng = np.random.default_rng(3)
    for _ in range(100):
        full = random_spd(rng, 5)
        out = eliminate_block(*split(full, 3))
        assert np.linalg.eigvalsh(0.5 * (out + out.T)).min() > -1e-10


def test_schur_sequential_equals_joint():
    rng = np.random.default_rng(4)
    for _ in range(50):
        full = random_spd(rng, 6)
        joint = eliminate_block(*split(full, 2))
        step1 = eliminate_block(*split(full, 4))
        step2 = eliminate_block(*split(step1, 2))
        np.testing.assert_allclose(step2, joint, rtol=1e-10, atol=1e-12)


def test_schur_singular_nuisance_without_leak_degrades():
    data = np.zeros((3, 3))
    data[0, 0] = 2.0
    data[0, 1] = data[1, 0] = 1.0
    data[1, 1] = 4.0  # second nuisance direction is dead but uncoupled
    out = eliminate_block(*split(data, 1))
    assert out == pytest.approx(np.array([[1.75]]))


def test_inverse_block_identity():
    # The defining property: inverting the reduction equals the kept block of
    # the full inverse.
    rng = np.random.default_rng(8)
    for _ in range(50):
        full = random_spd(rng, 6)
        reduced = eliminate_block(*split(full, 2))
        np.testing.assert_allclose(
            np.linalg.inv(reduced),
            np.linalg.inv(full)[:2, :2],
            rtol=1e-9,
            atol=1e-12,
        )


def test_eliminate_block_scalars():
    assert eliminate_block(3.0, 1.0, 2.0, 1.0) == pytest.approx(2.5)
    assert eliminate_block(2.0, 1.0, 2.0) == pytest.approx(1.5)


def test_eliminate_block_zero_cross_returns_target():
    target = random_spd(np.random.default_rng(5), 3)
    out = eliminate_block(target, np.zeros((3, 2)), np.eye(2))
    np.testing.assert_allclose(out, target)


def test_eliminate_block_matches_schur():
    rng = np.random.default_rng(6)
    for _ in range(50):
        full = random_spd(rng, 7)
        out = eliminate_block(*split(full, 3))
        np.testing.assert_allclose(
            out, inverse_block_oracle(full, 3), rtol=1e-10, atol=1e-12
        )


# ---------------------------------------------------------------------------
# Schur complement of the position EFIM by marginal_efim


def test_schur_keep_everything():
    j = JointEfim(((0, 0),), np.array([[2.0, 0.0], [0.0, 3.0]]))
    out = marginal_efim(j, j.coords)
    assert out.coords == j.coords
    np.testing.assert_array_equal(out.matrix, j.matrix)
    assert out.matrix is not j.matrix


def test_schur_shuffled_keep_set_returns_coords_in_efim_order():
    rng = np.random.default_rng(14)
    coords = tuple((k, n) for n in range(3) for k in range(2))
    j = JointEfim(coords, random_spd(rng, 12))
    keep = [(1, 0), (0, 2), (0, 1)]
    out = marginal_efim(j, keep)
    assert out.coords == ((1, 0), (0, 1), (0, 2))
    rows = [2 * coords.index(c) + i for c in out.coords for i in range(2)]
    oracle = np.linalg.inv(np.linalg.inv(j.matrix)[np.ix_(rows, rows)])
    np.testing.assert_allclose(out.matrix, oracle, rtol=1e-10, atol=1e-10)


def test_schur_singular_nuisance_with_leak_raises():
    # The eliminated agent carries no information of its own but is coupled
    # to the kept one: the reduction is undefined.
    matrix = np.zeros((4, 4))
    matrix[:2, :2] = 2.0 * np.eye(2)
    matrix[:2, 2:] = matrix[2:, :2] = np.eye(2)
    j = JointEfim(((0, 0), (1, 0)), matrix)
    with pytest.raises(SingularBlockError, match="singular nuisance block"):
        marginal_efim(j, [(0, 0)])


# ---------------------------------------------------------------------------
# chain elimination


def _chain_from_blocks(blocks) -> ChainBlocks:
    return ChainBlocks(**blocks)


def test_chain_length_one_collapses_to_single_reduction():
    rng = np.random.default_rng(10)
    state = random_spd(rng, 2)
    nuis = random_spd(rng, 3)
    cross = rng.uniform(-1, 1, size=(2, 3))
    chain = ChainBlocks(
        state_direct=(state,), nuis_diag=(nuis,), cross_same=(cross,)
    )
    out = eliminate_hmm_chain(chain)
    np.testing.assert_allclose(
        out[(0, 0)], eliminate_block(state, cross, nuis), rtol=1e-12
    )


def test_chain_zero_cross_returns_raw_state_blocks():
    rng = np.random.default_rng(11)
    states = tuple(random_spd(rng, 2) for _ in range(3))
    chain = ChainBlocks(
        state_direct=states,
        nuis_diag=tuple(random_spd(rng, 2) for _ in range(3)),
        nuis_offdiag=tuple(rng.uniform(-0.3, 0.3, size=(2, 2)) for _ in range(2)),
        cross_same=tuple(np.zeros((2, 2)) for _ in range(3)),
        cross_next=tuple(np.zeros((2, 2)) for _ in range(2)),
    )
    out = eliminate_hmm_chain(chain)
    for n in range(3):
        np.testing.assert_allclose(out[(n, n)], states[n])
        for m in range(n + 1, 3):
            assert not out[(n, m)].any()


def test_chain_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        blocks, dense, s_slices, n_slices = random_chain(rng)
        chain = _chain_from_blocks(blocks)
        out = eliminate_hmm_chain(chain)
        oracle = dense_chain_reduction(dense, s_slices, n_slices)
        for key, val in oracle.items():
            np.testing.assert_allclose(
                out[key], val, rtol=1e-9, atol=1e-9, err_msg=f"block {key}"
            )


def test_chain_non_pd_names_step():
    chain = ChainBlocks(
        state_direct=(np.eye(2), np.eye(2)),
        nuis_diag=(np.eye(2), -np.eye(2)),
        nuis_offdiag=(np.zeros((2, 2)),),
        cross_same=(np.zeros((2, 2)), np.zeros((2, 2))),
        cross_next=(np.zeros((2, 2)),),
    )
    with pytest.raises(SingularBlockError, match="step 1"):
        eliminate_hmm_chain(chain)


def test_chain_validates_lengths():
    with pytest.raises(ValueError):
        ChainBlocks(state_direct=(), nuis_diag=())
    with pytest.raises(ValueError):
        ChainBlocks(
            state_direct=(np.eye(2),),
            nuis_diag=(np.eye(2), np.eye(2)),
        )


def _block_rel(ours: np.ndarray, want: np.ndarray) -> float:
    """Relative Frobenius difference of one block; 0 only for equal zero blocks."""
    diff = float(np.linalg.norm(ours - want))
    return diff / float(np.linalg.norm(want)) if diff else 0.0


def test_chain_reduction_matches_the_forward_pass():
    rng = np.random.default_rng(120)
    for case in range(240):
        chain = ChainBlocks(**random_chain(rng, max_steps=8, max_dim=3)[0])
        ours = eliminate_hmm_chain(chain)
        want = eliminate_hmm_chain_forward(chain)
        assert list(ours) == list(want)
        for key, block in want.items():
            assert ours[key].shape == block.shape
            assert _block_rel(ours[key], block) <= 1e-12, (case, key)


def test_chain_without_optional_sequences_matches_the_forward_pass():
    rng = np.random.default_rng(121)
    blocks = random_chain(rng, steps=4, state_dim=2)[0]
    for omitted in ("nuis_offdiag", "cross_same", "cross_next"):
        chain = ChainBlocks(**{**blocks, omitted: ()})
        want = eliminate_hmm_chain_forward(chain)
        for key, block in eliminate_hmm_chain(chain).items():
            assert _block_rel(block, want[key]) <= 1e-12, (omitted, key)


def _chain_with(**parts) -> dict:
    """Blocks of a valid 2-step chain (2-D states, 1-D nuisances), with
    `parts` replaced."""
    return {
        "state_direct": (np.eye(2), np.eye(2)),
        "nuis_diag": (np.eye(1), np.eye(1)),
        "nuis_offdiag": (np.zeros((1, 1)),),
        "cross_same": (np.zeros((2, 1)), np.zeros((2, 1))),
        "cross_next": (np.zeros((2, 1)),),
        **parts,
    }


@pytest.mark.parametrize(
    "parts, message",
    [
        ({"nuis_offdiag": (np.zeros((1, 1)),) * 2}, "nuis_offdiag length mismatch"),
        ({"cross_same": (np.zeros((2, 1)),)}, "cross_same length mismatch"),
        ({"cross_next": (np.zeros((2, 1)),) * 2}, "cross_next length mismatch"),
        (
            {"state_direct": (np.eye(2), np.ones((2, 1)))},
            r"state_direct\[1\] has shape \(2, 1\), expected \(2, 2\)",
        ),
        (
            {"nuis_diag": (np.eye(1), np.ones(1))},
            r"nuis_diag\[1\] has shape \(1,\), expected \(1, 1\)",
        ),
        (
            {"nuis_offdiag": (np.zeros((1, 2)),)},
            r"nuis_offdiag\[0\] has shape \(1, 2\), expected \(1, 1\)",
        ),
        # a 1x1 block in a 2x1 slot would broadcast into both state rows
        (
            {"cross_same": (np.ones((1, 1)), np.zeros((2, 1)))},
            r"cross_same\[0\] has shape \(1, 1\), expected \(2, 1\)",
        ),
        (
            {"cross_next": (np.zeros((2, 2)),)},
            r"cross_next\[0\] has shape \(2, 2\), expected \(2, 1\)",
        ),
    ],
    ids=[
        "offdiag-length",
        "cross-same-length",
        "cross-next-length",
        "state-not-square",
        "nuisance-not-square",
        "offdiag-shape",
        "cross-same-broadcast",
        "cross-next-shape",
    ],
)
def test_chain_rejects_blocks_that_do_not_fit_their_slots(parts, message):
    with pytest.raises(ValueError, match=message):
        ChainBlocks(**_chain_with(**parts))


def test_block_diag():
    out = block_diag([np.eye(2), 3.0 * np.eye(1)])
    np.testing.assert_array_equal(out, np.diag([1.0, 1.0, 3.0]))
    assert block_diag([]).shape == (0, 0)


# ---------------------------------------------------------------------------
# stacked reductions


def test_eliminate_block_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(12)
    full = np.stack([random_spd(rng, 6) for _ in range(7)])
    a, b, c = full[:, :2, :2], full[:, :2, 2:], full[:, 2:, 2:]
    stacked = eliminate_block(a, b, c)
    assert stacked.shape == (7, 2, 2)
    for i in range(7):
        np.testing.assert_array_equal(stacked[i], eliminate_block(a[i], b[i], c[i]))


def test_singular_leak_is_charged_to_its_own_matrix():
    rng = np.random.default_rng(13)
    nuisance = np.stack([random_spd(rng, 2) for _ in range(4)]).reshape(2, 2, 2, 2)
    nuisance[1, 0] = [[0.0, 0.0], [0.0, 1.0]]  # dead direction ...
    cross = np.ones((2, 2, 1, 2))  # ... which the cross-information enters
    with pytest.raises(SingularBlockError):
        eliminate_block(np.ones((2, 2, 1, 1)), cross, nuisance)
    with pytest.raises(SingularBlockError):
        eliminate_block(np.ones((1, 1)), cross[1, 0], nuisance[1, 0])


@st.composite
def reduction_stacks(draw):
    """(target, cross, nuisance, cross_back) stacks that mix positive
    definite nuisance blocks, singular ones whose cross-information stays in
    their range, and singular ones whose cross-information, either side,
    enters a null direction (also the axis case [[1, 0], [0, 0]] against
    cross [[0, 1]])."""
    s, g = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kinds = draw(
        st.lists(st.sampled_from(["pd", "singular", "leak", "back_leak", "axis"]), min_size=1, max_size=5)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for kind in kinds:
        if kind == "pd":
            nuisance = random_spd(rng, g, scale=10.0 ** rng.uniform(-6.0, 6.0))
            cross = rng.normal(size=(s, g))
        elif kind == "axis":
            nuisance = np.diag([1.0] + [0.0] * (g - 1))
            cross = np.zeros((s, g))
            cross[0, -1] = 1.0
        else:
            basis = rng.normal(size=(g, int(rng.integers(0, g))))
            nuisance = basis @ basis.T
            cross = rng.normal(size=(s, basis.shape[1])) @ basis.T
            if kind == "leak":
                cross = cross + rng.normal(size=(s, g))
        back = cross.T + (rng.normal(size=(g, s)) if kind == "back_leak" else 0.0)
        parts.append((random_spd(rng, s), cross, nuisance, back))
    return tuple(np.stack(blocks) for blocks in zip(*parts))


@settings(max_examples=300, deadline=None)
@given(reduction_stacks())
def test_a_stack_raises_exactly_when_the_per_matrix_test_finds_a_leak(stack):
    target, cross, nuisance, back = stack
    if reduce_leaks_by_matrix(cross, nuisance, back):
        with pytest.raises(SingularBlockError, match=r"^singular nuisance block in ctx$"):
            _reduce(target, cross, nuisance, back, "ctx")
    else:
        assert _reduce(target, cross, nuisance, back, "ctx").shape == target.shape
