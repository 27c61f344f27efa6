"""Nuisance elimination by Schur complement, for single blocks and for
hidden-Markov nuisance chains.

`eliminate_block` reduces A - B C^-1 B^T, which preserves the inverse-matrix
block of the kept coordinates. Rank-deficient eliminated blocks are handled
by a symmetric pseudo-inverse: eigenvalues below PINV_RCOND * |lambda|_max
are treated as exact zeros. If a discarded null direction carries
cross-information, the reduction is undefined and `SingularBlockError` is
raised. A stacked call raises for the whole stack when any one matrix
fails, as `np.linalg.eigh` does, without naming it. `eliminate_hmm_chain`
removes a chain of per-step nuisances coupled step to step by one Schur
complement of its block-tridiagonal nuisance matrix.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Relative eigenvalue cutoff of the symmetric pseudo-inverse.
PINV_RCOND = 1e-12

# Relative cross-information leakage into a discarded null space that still
# counts as zero (round-off).
LEAK_TOL = 1e-8


class SingularBlockError(Exception):
    """An eliminated block is singular beyond the pseudo-inverse tolerance."""


def _reduce(
    target: np.ndarray,
    cross: np.ndarray,
    nuisance: np.ndarray,
    cross_back: np.ndarray,
    context: str,
) -> np.ndarray:
    """target - cross @ pinv(nuisance) @ cross_back, with null-leak detection.

    The eliminated block's null directions are read from `_scaled_eigh`,
    so mixed scales cannot push genuine eigenvalues under the cutoff.
    Discarding a null direction is only legal when no
    cross-information enters it (the reduction is then independent of the
    generalized inverse chosen); otherwise `SingularBlockError` is raised.

    Leading axes stack independent reductions (a 2-D call is a stack of
    one); a leak in any of them raises.
    """
    if nuisance.shape[-1] == 0:
        return target.copy()
    w, v, scale = _scaled_eigh(nuisance)
    cutoff = PINV_RCOND * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    null = np.abs(w) <= cutoff
    v_descaled = v / scale[..., :, None]
    if null.any():
        lead = null.shape[:-1]
        cross_b = np.broadcast_to(cross, (*lead, *cross.shape[-2:]))
        back_b = np.broadcast_to(cross_back, (*lead, *cross_back.shape[-2:]))
        if any(
            null[idx].any() and _leaks(cross_b[idx], back_b[idx], v_descaled[idx][:, null[idx]])
            for idx in np.ndindex(lead)
        ):
            raise SingularBlockError(f"singular nuisance block in {context}")
    inv_w = np.where(null, 0.0, 1.0) / np.where(null, 1.0, w)
    return target - (cross @ v_descaled) @ ((inv_w[..., :, None] * _t(v_descaled)) @ cross_back)


def _scaled_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, v, scale): eigh of the symmetrized J scaled to D^-1 J D^-1, D =
    sqrt(diag(J)) or 1 where that is not positive. The congruence keeps the
    null space, and a 1e12 pinning prior next to m^-2 information no longer
    drowns the small eigenvalues in round-off. Leading axes stack."""
    matrix = 0.5 * (matrix + _t(matrix))
    diag = np.clip(np.diagonal(matrix, axis1=-2, axis2=-1), 0.0, None)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    w, v = np.linalg.eigh(matrix / scale[..., :, None] / scale[..., None, :])
    return w, v, scale


def _leaks(cross: np.ndarray, cross_back: np.ndarray, null_basis: np.ndarray) -> bool:
    """Whether cross-information enters the (unnormalized) null directions
    beyond round-off."""
    norms = np.linalg.norm(null_basis, axis=0)
    null_basis = null_basis / np.where(norms > 0.0, norms, 1.0)
    ref = max(1.0, float(np.linalg.norm(cross)), float(np.linalg.norm(cross_back)))
    leak = max(
        float(np.linalg.norm(cross @ null_basis)),
        float(np.linalg.norm(null_basis.T @ cross_back)),
    )
    return leak > LEAK_TOL * ref


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def eliminate_block(
    target: np.ndarray | float,
    cross: np.ndarray | float,
    nuisance: np.ndarray | float,
    cross_back: np.ndarray | float | None = None,
):
    """One-shot nuisance reduction: target - cross @ nuisance^-1 @ cross_back.

    `cross_back` defaults to cross.T (the symmetric case). Scalar inputs
    return a float; leading axes stack independent reductions.
    """
    scalar = np.ndim(target) == 0
    a = np.atleast_2d(np.asarray(target, dtype=float))
    b = np.atleast_2d(np.asarray(cross, dtype=float))
    c = np.atleast_2d(np.asarray(nuisance, dtype=float))
    bt = _t(b) if cross_back is None else np.atleast_2d(np.asarray(cross_back, dtype=float))
    out = _reduce(a, b, c, bt, "eliminate_block")
    return float(out[0, 0]) if scalar else out


@dataclass(frozen=True)
class ChainBlocks:
    """Information blocks of one nuisance chain coupled to per-step states.

    The chain covers steps 0..T-1 of a single hidden-Markov nuisance sequence
    plus the per-step state coordinates it touches:

      state_direct[n]   direct state-state information at step n
      nuis_diag[n]      nuisance-nuisance information at step n
      nuis_offdiag[n]   nuisance cross-information between steps n and n+1
      cross_same[n]     state(n)-nuisance(n) cross-information
      cross_next[n]     state(n)-nuisance(n+1) cross-information

    State and nuisance dimensions, fixed by `state_direct` and `nuis_diag`,
    may vary per step; each block must fit its slot. An omitted sequence is 0.
    """

    state_direct: tuple[np.ndarray, ...]
    nuis_diag: tuple[np.ndarray, ...]
    nuis_offdiag: tuple[np.ndarray, ...] = ()
    cross_same: tuple[np.ndarray, ...] = ()
    cross_next: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if len(self.state_direct) < 1:
            raise ValueError("chain length must be >= 1")
        if len(self.nuis_diag) != len(self.state_direct):
            raise ValueError("nuis_diag length mismatch")
        s = [len(np.atleast_1d(b)) for b in self.state_direct]
        g = [len(np.atleast_1d(b)) for b in self.nuis_diag]
        slots = {
            "state_direct": list(zip(s, s)),
            "nuis_diag": list(zip(g, g)),
            "nuis_offdiag": list(zip(g, g[1:])),
            "cross_same": list(zip(s, g)),
            "cross_next": list(zip(s, g[1:])),
        }
        for name, shapes in slots.items():
            parts = getattr(self, name)
            if parts and len(parts) != len(shapes):
                raise ValueError(f"{name} length mismatch")
            for n, (block, shape) in enumerate(zip(parts, shapes)):
                if np.shape(block) != shape:
                    raise ValueError(f"{name}[{n}] has shape {np.shape(block)}, expected {shape}")

    @property
    def length(self) -> int:
        return len(self.state_direct)

    def state_dim(self, n: int) -> int:
        return self.state_direct[n].shape[0]

    def nuis_dim(self, n: int) -> int:
        return self.nuis_diag[n].shape[0]


def _chain_reduction(chain: ChainBlocks) -> np.ndarray:
    """A - X N^-1 X^T, symmetrized, over the state coordinates in step order.

    N is the chain's block-tridiagonal nuisance information (its diagonal
    blocks symmetrized), X its state-nuisance cross-information and A its
    block-diagonal direct state information. Each step's running nuisance
    block (its Schur complement given all earlier steps) must be PD, else
    `SingularBlockError` names the first step where it is not; N is then PD
    and one solve eliminates it.
    """
    t = chain.length
    s_at = np.cumsum([0, *map(chain.state_dim, range(t))])
    g_at = np.cumsum([0, *map(chain.nuis_dim, range(t))])
    s = [slice(*s_at[n : n + 2]) for n in range(t)]
    g = [slice(*g_at[n : n + 2]) for n in range(t)]
    nuis = block_diag(chain.nuis_diag)
    cross = np.zeros((s_at[-1], g_at[-1]))
    for n, block in enumerate(chain.nuis_offdiag):
        nuis[g[n], g[n + 1]] = block
        nuis[g[n + 1], g[n]] = np.transpose(block)
    for n, block in enumerate(chain.cross_same):
        cross[s[n], g[n]] = block
    for n, block in enumerate(chain.cross_next):
        cross[s[n], g[n + 1]] = block
    nuis = 0.5 * (nuis + nuis.T)

    for n in range(t):
        b = nuis[g[n], g[n]]
        if n > 0:
            off = nuis[g[n - 1], g[n]]
            b = b - off.T @ running_inv @ off
        w = np.linalg.eigvalsh(b)
        if w.min() <= PINV_RCOND * max(1.0, w.max()):
            raise SingularBlockError(
                f"nuisance chain block not positive definite at step {n}"
            )
        running_inv = np.linalg.inv(b)

    out = block_diag(chain.state_direct) - cross @ np.linalg.solve(nuis, cross.T)
    return 0.5 * (out + out.T)


def eliminate_hmm_chain(chain: ChainBlocks) -> dict[tuple[int, int], np.ndarray]:
    """State-state information for every step pair n <= m once a hidden-Markov
    nuisance chain is removed: the blocks of `_chain_reduction`'s matrix."""
    out = _chain_reduction(chain)
    at = np.cumsum([0, *map(chain.state_dim, range(chain.length))])
    return {
        (n, m): out[at[n] : at[n + 1], at[m] : at[m + 1]]
        for n in range(chain.length)
        for m in range(n, chain.length)
    }


def block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Stack square blocks along the diagonal."""
    if not blocks:
        return np.zeros((0, 0))
    dims = [b.shape[0] for b in blocks]
    out = np.zeros((sum(dims), sum(dims)))
    pos = 0
    for b, d in zip(blocks, dims):
        out[pos : pos + d, pos : pos + d] = b
        pos += d
    return out
