"""Numeric kernels for displacement elements, outcome densities and mixtures.

Each kernel is vectorized with numpy over the batch axis; the test suite checks
them against explicit loops and against dense matrix exponentials. The
density and mixture kernels take a state as a factor L of rho = L L^H, d x r,
so their work grows with the rank r rather than with d: a pure state is one
column.

The central recurrence builds displacement-operator matrix elements
``<m|D(z)|n>`` without factorials. On and below the diagonal, m = n + k with
k >= 0, the element is exp(-x/2) z^k sqrt(n!/m!) L_n^(k)(x) with x = |z|^2,
and the three-term Laguerre recurrence runs down each diagonal:

    t_0[k]     = exp(-x/2) z^k / sqrt(k!)                  (t_n[k] = <n+k|D|n>)
    t_{n+1}[k] = ((2n+1+k-x) t_n[k] - sqrt(n(n+k)) t_{n-1}[k])
                 / sqrt((n+1)(n+k+1))

Run forward, it keeps roundoff near the size of the elements: against a
padded dense exponential they are off by 1e-15 at |z| = 3 and 6 on 64 x 64
and 96 x 32 blocks, and by 4.6e-14 at |z| = 0.014 on 64 levels. Above the
diagonal <m|D|n> = (-1)^(m+n) conj(<n|D|m>). The column recurrence
col_{n+1} = (a^dag - conj(z)) col_n / sqrt(n+1), which this replaces, lost
digits as the blocks grew: it was off by 1e-7 on the 32 x 32 block and by
0.18 on the 64 x 64 block at |z| = 3.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance of the z -> -z grid check: 16 ulp of max|z|.
_MIRROR_TOL = 16 * np.finfo(np.float64).eps


def displacement_columns_batch(zs, dim, ncols):
    """<m|D(z)|n> for m < dim, n < ncols, for every z in the batch.

    Returns a (len(zs), dim, ncols) complex array. It is a transposed view of
    an (ncols, rows, len(zs)) buffer, rows = max(dim, ncols): each diagonal
    step writes one contiguous block, buf[n, n:] = t_n, and the batch is the
    contiguous axis, so the upper triangle is copied one batch row at a time.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    rows = max(dim, ncols)
    buf = np.empty((ncols, rows, zs.shape[0]), np.complex128)
    x = zs.real**2 + zs.imag**2
    steps = buf[0]
    steps[0] = np.exp(-0.5 * x)
    np.multiply(zs, 1.0 / np.sqrt(np.arange(1.0, rows))[:, None],
                out=steps[1:])
    np.cumprod(steps, axis=0, out=steps)
    ks = np.arange(rows, dtype=np.float64)[:, None]
    for n in range(ncols - 1):
        k = ks[: rows - n - 1]
        nxt = buf[n + 1, n + 1:]
        np.multiply((2 * n + 1) + k - x, buf[n, n:rows - 1], out=nxt)
        if n:
            nxt -= np.sqrt(n * (n + k)) * buf[n - 1, n - 1:rows - 2]
        nxt *= 1.0 / np.sqrt((n + 1) * (n + 1 + k))
    for n in range(1, ncols):                  # <m|D|n> = (-1)^(m+n) <n|D|m>*
        np.conjugate(buf[:n, n], out=buf[n, :n])
        buf[n, n - 1::-2] *= -1.0
    return buf[:, :dim].transpose(2, 1, 0)


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


def povm_grid_values(zs, s_dag, factor, weights, prefactor):
    """Outcome densities prefactor * sum_n weights[n] <u_n|rho|u_n>.

    u_n = s_dag @ D(z)|n>, evaluated for every z in the batch, and the state
    enters as a factor L (d x r) of rho = L L^H. With R = L^H s_dag
    (r x d), <u_n|rho|u_n> = |R c_n|^2 for the displacement column c_n, so
    each point costs r products of length d per thermal term: one GEMM of R
    with a term's columns over all points, so one term's products are held
    at a time. The values are sums of squares, hence never negative.

    A mirror-symmetric batch (zs[::-1] = -zs) builds columns for its first
    half only. With P = diag((-1)^m), D(-z) = P D(z) P, so the columns of -z
    are (-1)^n P c_n(z) and value(-z) = sum_n w_n |R P c_n(z)|^2: the
    mirrored half is the same columns against R P, stacked under R.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    total = zs.shape[0]
    dim = s_dag.shape[0]
    rows = factor.conj().T @ s_dag                              # R, r x d
    half = _mirror_half(zs)
    if half is not None:
        rows = np.concatenate([rows, rows * (-1.0) ** np.arange(dim)])
        zs = zs[:half]
    cols = displacement_columns_batch(zs, dim, weights.shape[0])
    cols = np.ascontiguousarray(cols.transpose(2, 1, 0))      # [n, m, b]
    nb, nparts = cols.shape[2], 1 if half is None else 2
    # |y|^2 = y.re^2 + y.im^2: the real view interleaves the two along the
    # batch axis, so sum each (re, im) pair after squaring
    q = np.zeros((nparts, 2 * nb))
    for weight, col in zip(weights, cols):
        prods = (rows @ col).view(np.float64)           # [(part, r), B]
        prods = prods.reshape(nparts, -1, 2 * nb)
        q += weight * np.einsum("srB,srB->sB", prods, prods)
    q = q.reshape(nparts, nb, 2).sum(axis=2)
    if half is None:
        return prefactor * q[0]
    return prefactor * np.concatenate([q[0], q[1][: total - half][::-1]])


def smear_accumulate(disp_mats, weights, factor):
    """sum_k weights[k] D_k rho D_k^dagger, and a factor of it, for rho = L L^H.

    ``disp_mats`` is (nb, m_out, n_in): each D_k may be a rectangular block,
    such as the first n_in columns of a displacement on a longer ladder.
    ``factor`` is L, (n_in, r), and the weights must not be negative.
    Returns (mix, F): F, (m_out, r nb), holds the columns sqrt(w_k) D_k L
    for every k, and mix = F F^H is (m_out, m_out). The blocks are copied
    into [m, n, k] order, so that L^T times them gives F in [m, r, k] order
    and one GEMM gives the sum: the work scales with the rank r of the
    state. The copy is a no-op for the transposed blocks of the second
    mixture pass, which ``displacement_columns_batch`` builds in that order.
    """
    m_out = disp_mats.shape[1]
    blocks = np.ascontiguousarray(disp_mats.transpose(1, 2, 0))   # [m, n, k]
    out = np.matmul(factor.T, blocks)                             # [m, r, k]
    out *= np.sqrt(weights)
    out = out.reshape(m_out, -1)
    return out @ out.conj().T, out

