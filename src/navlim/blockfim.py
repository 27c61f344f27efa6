"""Nuisance elimination by Schur complement, for single blocks and for
hidden-Markov nuisance chains.

`eliminate_block` reduces A - B C^-1 B^T, which preserves the inverse-matrix
block of the kept coordinates. Rank-deficient eliminated blocks are handled
by a symmetric pseudo-inverse: eigenvalues below PINV_RCOND * |lambda|_max
are treated as exact zeros. If a discarded null direction carries
cross-information, the reduction is undefined and `SingularBlockError` is
raised. A stacked call raises for the whole stack when any one matrix
fails, as `np.linalg.eigh` does, without naming it. `eliminate_hmm_chain`
removes a whole chain of per-step nuisances coupled step to step, in time
order.
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

    The eliminated block is diagonally scaled to unit diagonal before its
    eigendecomposition so that wildly mixed scales (a 1e12 pinning prior next
    to m^-2 information) cannot push genuine eigenvalues under the null
    cutoff; the scaling is a congruence, so the null space is preserved
    exactly. Discarding a null direction is only legal when no
    cross-information enters it (the reduction is then independent of the
    generalized inverse chosen); otherwise `SingularBlockError` is raised.

    Leading axes stack independent reductions (a 2-D call is a stack of
    one); a leak in any of them raises.
    """
    nuisance = 0.5 * (nuisance + _t(nuisance))
    if nuisance.shape[-1] == 0:
        return target.copy()
    diag = np.clip(np.diagonal(nuisance, axis1=-2, axis2=-1), 0.0, None)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    w, v = np.linalg.eigh(nuisance / scale[..., :, None] / scale[..., None, :])
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

    State and nuisance dimensions may vary per step.
    """

    state_direct: tuple[np.ndarray, ...]
    nuis_diag: tuple[np.ndarray, ...]
    nuis_offdiag: tuple[np.ndarray, ...] = ()
    cross_same: tuple[np.ndarray, ...] = ()
    cross_next: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        t = len(self.state_direct)
        if t < 1:
            raise ValueError("chain length must be >= 1")
        if len(self.nuis_diag) != t:
            raise ValueError("nuis_diag length mismatch")
        if self.nuis_offdiag and len(self.nuis_offdiag) != t - 1:
            raise ValueError("nuis_offdiag length mismatch")
        if self.cross_same and len(self.cross_same) != t:
            raise ValueError("cross_same length mismatch")
        if self.cross_next and len(self.cross_next) != t - 1:
            raise ValueError("cross_next length mismatch")

    @property
    def length(self) -> int:
        return len(self.state_direct)

    def state_dim(self, n: int) -> int:
        return self.state_direct[n].shape[0]

    def nuis_dim(self, n: int) -> int:
        return self.nuis_diag[n].shape[0]


def _chain_part(parts: tuple[np.ndarray, ...], n: int, rows: int, cols: int) -> np.ndarray:
    if parts and n < len(parts):
        return np.asarray(parts[n], dtype=float)
    return np.zeros((rows, cols))


def eliminate_hmm_chain(chain: ChainBlocks) -> dict[tuple[int, int], np.ndarray]:
    """Eliminate a hidden-Markov nuisance chain in time order.

    Returns the state-state information contribution for every step pair
    n <= m after the whole chain is removed. The forward pass keeps, per step,
    the running nuisance block (its Schur complement given all earlier steps)
    and the filled-in state-nuisance cross blocks; each must stay PD, else
    `SingularBlockError` names the failing step.
    """
    t = chain.length
    running: list[np.ndarray] = []
    running_inv: list[np.ndarray] = []
    for n in range(t):
        b = np.asarray(chain.nuis_diag[n], dtype=float)
        b = 0.5 * (b + b.T)
        if n > 0:
            off = _chain_part(chain.nuis_offdiag, n - 1, chain.nuis_dim(n - 1), chain.nuis_dim(n))
            b = b - off.T @ running_inv[n - 1] @ off
        w = np.linalg.eigvalsh(b)
        if w.min() <= PINV_RCOND * max(1.0, w.max()):
            raise SingularBlockError(
                f"nuisance chain block not positive definite at step {n}"
            )
        running.append(b)
        running_inv.append(np.linalg.inv(b))

    # cross[(a, l)]: state(a)-nuisance(l) cross-information once nuisances
    # before step l are eliminated; fill-in propagates forward only.
    cross: dict[tuple[int, int], np.ndarray] = {}
    for a in range(t):
        cross[(a, a)] = _chain_part(chain.cross_same, a, chain.state_dim(a), chain.nuis_dim(a))
    for n in range(t - 1):
        step = running_inv[n] @ _chain_part(
            chain.nuis_offdiag, n, chain.nuis_dim(n), chain.nuis_dim(n + 1)
        )
        for a in range(n + 1):
            fill = -cross[(a, n)] @ step
            if a == n:
                fill = fill + _chain_part(
                    chain.cross_next, n, chain.state_dim(n), chain.nuis_dim(n + 1)
                )
            cross[(a, n + 1)] = fill

    weighted = {(a, l): cross[(a, l)] @ running_inv[l] for (a, l) in cross}
    out: dict[tuple[int, int], np.ndarray] = {}
    for n in range(t):
        for m_ in range(n, t):
            acc = np.zeros((chain.state_dim(n), chain.state_dim(m_)))
            for l in range(m_, t):
                acc -= weighted[(n, l)] @ cross[(m_, l)].T
            if m_ == n:
                acc = acc + np.asarray(chain.state_direct[n], dtype=float)
                acc = 0.5 * (acc + acc.T)
            out[(n, m_)] = acc
    return out


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
