import numpy as np
import pytest

from navlim import blockfim
from navlim.blockfim import (
    BlockLayout,
    BlockSymMatrix,
    ChainBlocks,
    ParamId,
    ParamKind,
    SingularBlockError,
    assemble,
    block_diag,
    canonical_key,
    eliminate_block,
    eliminate_hmm_chain,
    schur_complement,
    sym_pinv,
)
from oracles import dense_chain_reduction, random_chain, random_spd


def pid(kind=ParamKind.POSITION, agent=0, time=0, peer=None):
    return ParamId(kind, agent, time, peer)


# ---------------------------------------------------------------------------
# identifiers and layout


def test_param_id_validation():
    with pytest.raises(ValueError):
        ParamId(ParamKind.INTER, agent=1, time=0)  # missing peer
    with pytest.raises(ValueError):
        ParamId(ParamKind.INTER, agent=1, time=0, peer=1)  # self peer
    with pytest.raises(ValueError):
        ParamId(ParamKind.POSITION, agent=0, time=0, peer=2)  # stray peer
    with pytest.raises(ValueError):
        ParamId(ParamKind.POSITION, agent=-1, time=0)


def test_canonical_key_orders_positions_first_within_step():
    ids = [
        pid(ParamKind.INTER, 0, 0, peer=1),
        pid(ParamKind.POSITION, 1, 0),
        pid(ParamKind.INTRA, 0, 0),
        pid(ParamKind.POSITION, 0, 1),
        pid(ParamKind.POSITION, 0, 0),
    ]
    ordered = sorted(ids, key=canonical_key)
    assert ordered[0] == pid(ParamKind.POSITION, 0, 0)
    assert ordered[1] == pid(ParamKind.POSITION, 1, 0)
    assert ordered[2] == pid(ParamKind.INTRA, 0, 0)
    assert ordered[3] == pid(ParamKind.INTER, 0, 0, peer=1)
    assert ordered[4] == pid(ParamKind.POSITION, 0, 1)


def test_layout_offsets_and_duplicates():
    layout = BlockLayout([(pid(agent=0), 2), (pid(agent=1), 3)])
    assert layout.total_dim == 5
    assert layout.offset(pid(agent=1)) == 2
    assert layout.dim(pid(agent=1)) == 3
    with pytest.raises(ValueError):
        BlockLayout([(pid(agent=0), 2), (pid(agent=0), 2)])
    with pytest.raises(ValueError):
        BlockLayout([(pid(agent=0), 0)])


# ---------------------------------------------------------------------------
# assemble


def test_assemble_empty_is_zero():
    layout = BlockLayout([(pid(agent=0), 2), (pid(agent=1), 2)])
    m = assemble(layout, [])
    assert not m.data.any()


def test_assemble_single_diagonal_block():
    layout = BlockLayout([(pid(agent=0), 2), (pid(agent=1), 2)])
    blk = np.array([[1.0, 2.0], [2.0, 5.0]])
    m = assemble(layout, [(pid(agent=0), pid(agent=0), blk)])
    np.testing.assert_array_equal(m.block(pid(agent=0), pid(agent=0)), blk)
    assert not m.block(pid(agent=1), pid(agent=1)).any()


def test_assemble_sums_and_mirrors():
    layout = BlockLayout([(pid(agent=0), 1), (pid(agent=1), 1)])
    m = assemble(
        layout,
        [
            (pid(agent=0), pid(agent=1), np.array([[2.0]])),
            (pid(agent=0), pid(agent=1), np.array([[3.0]])),
        ],
    )
    np.testing.assert_array_equal(m.data, [[0.0, 5.0], [5.0, 0.0]])
    assert m.symmetry_error() == 0.0


def test_assemble_rejects_shape_mismatch():
    layout = BlockLayout([(pid(agent=0), 2), (pid(agent=1), 1)])
    with pytest.raises(ValueError):
        assemble(layout, [(pid(agent=0), pid(agent=1), np.eye(2))])


# ---------------------------------------------------------------------------
# schur complement and eliminate_block


def test_schur_scalar_example():
    layout = BlockLayout([(pid(agent=0), 1), (pid(agent=1), 1)])
    m = BlockSymMatrix(layout, np.array([[2.0, 1.0], [1.0, 2.0]]))
    out = schur_complement(m, [pid(agent=0)])
    assert out.data == pytest.approx(np.array([[1.5]]))


def test_schur_block_diagonal_is_identity_on_kept():
    layout = BlockLayout([(pid(agent=0), 2), (pid(agent=1), 2)])
    a = random_spd(np.random.default_rng(0), 2)
    c = random_spd(np.random.default_rng(1), 2)
    m = BlockSymMatrix(layout, block_diag([a, c]))
    out = schur_complement(m, [pid(agent=0)])
    np.testing.assert_allclose(out.data, a)


def test_schur_matches_dense_inverse_block():
    rng = np.random.default_rng(42)
    for _ in range(50):
        layout = BlockLayout(
            [(pid(agent=0), 2), (pid(agent=1), 2), (pid(agent=2), 2)]
        )
        full = random_spd(rng, 6)
        m = BlockSymMatrix(layout, full)
        out = schur_complement(m, [pid(agent=0)])
        oracle = np.linalg.inv(np.linalg.inv(full)[:2, :2])
        np.testing.assert_allclose(out.data, oracle, rtol=1e-10, atol=1e-10)


def test_schur_preserves_psd():
    rng = np.random.default_rng(3)
    for _ in range(100):
        full = random_spd(rng, 5)
        layout = BlockLayout([(pid(agent=0), 3), (pid(agent=1), 2)])
        out = schur_complement(BlockSymMatrix(layout, full), [pid(agent=0)])
        assert np.linalg.eigvalsh(out.data).min() > -1e-10


def test_schur_sequential_equals_joint():
    rng = np.random.default_rng(4)
    for _ in range(50):
        layout = BlockLayout(
            [(pid(agent=0), 2), (pid(agent=1), 2), (pid(agent=2), 2)]
        )
        m = BlockSymMatrix(layout, random_spd(rng, 6))
        joint = schur_complement(m, [pid(agent=0)])
        step1 = schur_complement(m, [pid(agent=0), pid(agent=1)])
        step2 = schur_complement(step1, [pid(agent=0)])
        np.testing.assert_allclose(step2.data, joint.data, rtol=1e-10, atol=1e-12)


def test_schur_keep_everything():
    layout = BlockLayout([(pid(agent=0), 2)])
    m = BlockSymMatrix(layout, np.array([[2.0, 0.0], [0.0, 3.0]]))
    out = schur_complement(m, [pid(agent=0)])
    np.testing.assert_array_equal(out.data, m.data)


def test_schur_singular_nuisance_with_leak_raises():
    layout = BlockLayout([(pid(agent=0), 1), (pid(agent=1), 1)])
    # Eliminated block is zero but carries cross-information: undefined.
    m = BlockSymMatrix(layout, np.array([[2.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SingularBlockError, match="singular nuisance block"):
        schur_complement(m, [pid(agent=0)])


def test_schur_singular_nuisance_without_leak_degrades():
    layout = BlockLayout([(pid(agent=0), 1), (pid(agent=1), 2)])
    data = np.zeros((3, 3))
    data[0, 0] = 2.0
    data[0, 1] = data[1, 0] = 1.0
    data[1, 1] = 4.0  # second nuisance direction is dead but uncoupled
    m = BlockSymMatrix(layout, data)
    out = schur_complement(m, [pid(agent=0)])
    assert out.data == pytest.approx(np.array([[1.75]]))


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
        a, b, c = full[:3, :3], full[:3, 3:], full[3:, 3:]
        out = eliminate_block(a, b, c)
        layout = BlockLayout([(pid(agent=0), 3), (pid(agent=1), 4)])
        oracle = schur_complement(BlockSymMatrix(layout, full), [pid(agent=0)])
        np.testing.assert_allclose(out, oracle.data, rtol=1e-12, atol=1e-12)


def test_inverse_block_identity():
    # The defining property: inverting the reduction equals the kept block of
    # the full inverse.
    rng = np.random.default_rng(8)
    for _ in range(50):
        full = random_spd(rng, 6)
        layout = BlockLayout([(pid(agent=0), 2), (pid(agent=1), 4)])
        reduced = schur_complement(BlockSymMatrix(layout, full), [pid(agent=0)])
        np.testing.assert_allclose(
            np.linalg.inv(reduced.data),
            np.linalg.inv(full)[:2, :2],
            rtol=1e-9,
            atol=1e-12,
        )


def test_sym_pinv_zero_matrix():
    np.testing.assert_array_equal(sym_pinv(np.zeros((3, 3))), np.zeros((3, 3)))


def test_sym_pinv_matches_inverse_when_pd():
    m = random_spd(np.random.default_rng(9), 4)
    np.testing.assert_allclose(sym_pinv(m), np.linalg.inv(m), rtol=1e-10)


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
    with pytest.raises(SingularBlockError) as info:
        eliminate_block(np.ones((2, 2, 1, 1)), cross, nuisance)
    assert info.value.members == ((1, 0),)
    with pytest.raises(SingularBlockError) as info:
        eliminate_block(np.ones((1, 1)), cross[1, 0], nuisance[1, 0])
    assert info.value.members == ((),)


def test_eigh_failure_names_the_failing_matrices(monkeypatch):
    real = np.linalg.eigh

    def fails_on_nan(a):
        if np.isnan(a).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_nan)
    stack = np.stack([np.eye(3)] * 6).reshape(3, 2, 3, 3)
    stack[2, 1, 0, 0] = stack[0, 1, 1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as info:
        blockfim._eigh(stack)
    assert info.value.members == ((0, 1), (2, 1))
