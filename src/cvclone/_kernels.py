"""Numeric kernels for displacement elements, outcome densities and mixtures.

Each kernel is vectorized with numpy over the batch axis; the test suite checks
them against explicit loops and against dense matrix exponentials.

The central recurrence builds displacement-operator matrix elements
``<m|D(z)|n>`` column by column without factorials:

    col_0[m]    = exp(-|z|^2/2) z^m / sqrt(m!)
    col_{n+1}[m] = (sqrt(m) col_n[m-1] - conj(z) col_n[m]) / sqrt(n+1)
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance of the z -> -z grid check: 16 ulp of max|z|.
_MIRROR_TOL = 16 * np.finfo(np.float64).eps


def displacement_columns_batch(zs, dim, ncols):
    """<m|D(z)|n> for m < dim, n < ncols, for every z in the batch.

    Returns a (len(zs), dim, ncols) complex array. It is a transposed view of
    a (ncols, len(zs), dim) buffer, so each recurrence step writes one
    contiguous block.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    nb = zs.shape[0]
    buf = np.empty((ncols, nb, dim), np.complex128)
    col = buf[0]
    col[:, 0] = np.exp(-0.5 * (zs.real**2 + zs.imag**2))
    for m in range(1, dim):
        col[:, m] = col[:, m - 1] * zs / math.sqrt(m)
    zc = np.conj(zs)[:, None]
    roots = np.sqrt(np.arange(dim, dtype=np.float64))
    for n in range(ncols - 1):
        col, nxt = buf[n], buf[n + 1]
        nxt[:, 0] = -zc[:, 0] * col[:, 0]
        nxt[:, 1:] = roots[1:] * col[:, :-1] - zc * col[:, 1:]
        nxt *= 1.0 / math.sqrt(n + 1.0)
    return buf.transpose(1, 2, 0)


def _mirror_half(zs):
    """ceil(B/2) if zs[::-1] == -zs to within a few ulp of max|z|, else None.

    The outcome grid of two axes each symmetric about 0 has this form, also
    when linspace leaves it 1-3 ulp off (measured up to 2.7 ulp of max|z|).
    """
    scale = np.abs(zs).max(initial=0.0)
    gap = np.abs(zs + zs[::-1]).max(initial=0.0)
    # a NaN or inf compares False either way, so require the bound to hold
    if not (np.isfinite(scale) and gap <= _MIRROR_TOL * scale):
        return None
    return (zs.shape[0] + 1) // 2


def povm_grid_values(zs, s_dag, rho, weights, prefactor):
    """Outcome densities prefactor * sum_n weights[n] <u_n|rho|u_n>.

    u_n = s_dag @ D(z)|n>, evaluated for every z in the batch. The squeeze is
    folded into the state once, M = s_dag^H rho s_dag, so each point costs one
    product of M with its displacement columns, all points in one GEMM.

    A mirror-symmetric batch (zs[::-1] = -zs) builds columns for its first
    half only. With P = diag((-1)^m), D(-z) = P D(z) P, so the columns of -z
    are (-1)^n P c_n(z) and value(-z) = sum_n w_n c_n(z)^H (P M P) c_n(z):
    the mirrored half is the same columns against P M P. (Splitting M into
    parity blocks instead, value(+-z) = q_s +- q_d, loses the relative
    accuracy of tiny densities to the cancellation in q_s - q_d.)
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    total = zs.shape[0]
    dim = s_dag.shape[0]
    folded = s_dag.conj().T @ rho @ s_dag
    half = _mirror_half(zs)
    if half is None:
        parts = folded[None]
    else:
        sign = (-1.0) ** np.arange(dim)
        parts = np.stack([folded, np.outer(sign, sign) * folded])
        zs = zs[:half]
    cols = displacement_columns_batch(zs, dim, weights.shape[0])
    cols = np.ascontiguousarray(cols.transpose(2, 0, 1))      # [n, b, m]
    nth, nb, nparts = cols.shape[0], cols.shape[1], parts.shape[0]
    prods = cols @ parts.reshape(nparts * dim, dim).T      # [n, b, (part, m)]
    # Re(c^H y) is the dot product of the real views of c and y.
    q = np.einsum("nbk,nbsk,n->sb", cols.view(np.float64),
                  prods.view(np.float64).reshape(nth, nb, nparts, 2 * dim),
                  weights)
    if half is None:
        return prefactor * q[0]
    return prefactor * np.concatenate([q[0], q[1][: total - half][::-1]])


def smear_accumulate(disp_mats, weights, rho):
    """sum_k weights[k] * D_k rho D_k^dagger over a batch of displacements.

    ``rho`` is one (d, d) state or a stack (s, d, d); the result has its
    shape. Two GEMMs on the (n, k, m) layout that displacement_columns_batch
    builds, with no transposing copy: R = rho (w_k D_k^dagger) for all k at
    once, then sum over (n, k) of D_k[m, n] R[n, k, q].
    """
    nb, dim, _ = disp_mats.shape
    cols = np.ascontiguousarray(disp_mats.transpose(2, 0, 1))  # [n, k, m]
    right = cols.conj()
    right *= weights[:, None]
    stack = rho.reshape(-1, dim)
    prods = stack @ right.reshape(dim, nb * dim)
    out = cols.reshape(dim * nb, dim).T @ prods.reshape(-1, dim * nb, dim)
    return out.reshape(rho.shape)


def displacement_columns(z, dim, ncols):
    """<m|D(z)|n> as a (dim, ncols) matrix for a single z."""
    return displacement_columns_batch(np.array([z], np.complex128),
                                      dim, ncols)[0]


def displacement_matrix(z, dim):
    """Full dim x dim truncated displacement operator D(z)."""
    return displacement_columns(z, dim, dim)
