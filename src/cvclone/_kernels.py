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


def displacement_columns_batch(zs, dim, ncols):
    """<m|D(z)|n> for m < dim, n < ncols, for every z in the batch.

    Returns a (len(zs), dim, ncols) complex array.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    nb = zs.shape[0]
    out = np.empty((nb, dim, ncols), np.complex128)
    col = np.empty((nb, dim), np.complex128)
    col[:, 0] = np.exp(-0.5 * (zs.real**2 + zs.imag**2))
    for m in range(1, dim):
        col[:, m] = col[:, m - 1] * zs / math.sqrt(m)
    out[:, :, 0] = col
    zc = np.conj(zs)[:, None]
    roots = np.sqrt(np.arange(dim, dtype=np.float64))
    for n in range(ncols - 1):
        nxt = np.empty_like(col)
        nxt[:, 0] = -zc[:, 0] * col[:, 0]
        nxt[:, 1:] = roots[1:] * col[:, :-1] - zc * col[:, 1:]
        nxt *= 1.0 / math.sqrt(n + 1.0)
        out[:, :, n + 1] = nxt
        col = nxt
    return out


def povm_grid_values(zs, s_dag, rho, weights, prefactor):
    """Outcome densities prefactor * sum_n weights[n] <u_n|rho|u_n>.

    u_n = s_dag @ D(z)|n>, evaluated for every z in the batch. The squeeze is
    folded into the state once, M = s_dag^H rho s_dag, so each point costs one
    batched product of M with the displacement columns.
    """
    dim = s_dag.shape[0]
    cols = displacement_columns_batch(zs, dim, weights.shape[0])
    folded = s_dag.conj().T @ rho @ s_dag
    vals = np.einsum("bmn,bmn,n->b", cols.conj(), folded @ cols, weights).real
    return prefactor * vals


def smear_accumulate(disp_mats, weights, rho):
    """sum_k weights[k] * D_k rho D_k^dagger over a batch of displacements.

    X_k = weights[k] D_k rho is one batched product; the sum over k is then a
    single (d, B*d) @ (B*d, d) product of X with the conjugated D_k.
    """
    nb, dim, _ = disp_mats.shape
    left = (weights[:, None, None] * disp_mats) @ rho
    flat_left = left.transpose(1, 0, 2).reshape(dim, nb * dim)
    flat_right = disp_mats.conj().transpose(0, 2, 1).reshape(nb * dim, dim)
    return flat_left @ flat_right


def displacement_columns(z, dim, ncols):
    """<m|D(z)|n> as a (dim, ncols) matrix for a single z."""
    return displacement_columns_batch(np.array([z], np.complex128),
                                      dim, ncols)[0]


def displacement_matrix(z, dim):
    """Full dim x dim truncated displacement operator D(z)."""
    return displacement_columns(z, dim, dim)
