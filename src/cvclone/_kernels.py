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

The recurrence also keeps three symmetries of the elements exactly, bit for
bit: D(conj z) = conj D(z), D(i t) = i^(m-n) D(t) for real t, and
D(-z) = (-1)^(m+n) D(z). With D(e^(i phi) z) = R D(z) R^dag,
R = diag(e^(i m phi)), they let ``povm_grid_values`` build one quadrant or
one half of an outcome grid and ``fock.smeared_mixture`` one block for both
passes of a symmetric smear. For real t, D(t) is real, and the recurrence
builds it in float64: the smear's steps are real, and its second pass
multiplies the real blocks in real arithmetic.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance of every reflection check of a grid (row, column and
# z -> -z): 16 ulp of max|z|. linspace leaves a symmetric axis 1-3 ulp off
# (measured up to 2.7 ulp of max|z|).
_MIRROR_TOL = 16 * np.finfo(np.float64).eps


def displacement_columns_batch(zs, dim, ncols):
    """<m|D(z)|n> for m < dim, n < ncols, for every z in the batch.

    Returns a (len(zs), dim, ncols) array, float64 for real ``zs`` and
    complex128 otherwise: D(t) is real for real t. It is a transposed view
    of an (ncols, rows, len(zs)) buffer, rows = max(dim, ncols): each
    diagonal step writes one contiguous block, buf[n, n:] = t_n, and the
    batch is the contiguous axis, so the upper triangle is copied one batch
    row at a time. Both dtypes take the same steps; for real points every
    product of the complex build has a zero imaginary part, so the real
    block equals its real part bit for bit.
    """
    dtype = np.float64 if np.isrealobj(zs) else np.complex128
    zs = np.ascontiguousarray(zs, dtype=dtype)
    rows = max(dim, ncols)
    buf = np.empty((ncols, rows, zs.shape[0]), dtype)
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


def _reflections(zs):
    """(rows, cols, phase) for the exact reflections of a 2-D batch, or None.

    rows: zs[::-1] = ph conj(zs); cols: zs[:, ::-1] = -ph conj(zs), with
    ph = e^(i phase), each only on an axis of two or more points; the point
    mirror zs[::-1, ::-1] = -zs. Each holds within _MIRROR_TOL of max|z|,
    and both axes are claimed only with the point mirror. An outcome grid
    z = delta w(x, x') at an exact right angle has w(-x, x') = conj w(x, x'),
    so all three hold with ph = delta / conj(delta), read off the grid's
    largest point and its two images. Off a right angle the point mirror
    alone can hold, the plan (False, False, phase). A NaN or inf has none.
    """
    mags = np.abs(zs)
    scale = mags.max()
    # a NaN or inf compares False either way, so require the bounds to hold
    if not np.isfinite(scale):
        return None
    tol = _MIRROR_TOL * scale
    i, j = np.unravel_index(mags.argmax(), zs.shape)
    row_phase = np.angle(zs[-1 - i, j] * zs[i, j])
    col_phase = np.angle(-zs[i, -1 - j] * zs[i, j])
    rows = (zs.shape[0] > 1 and np.abs(
        zs[::-1] - np.exp(1j * row_phase) * zs.conj()).max() <= tol)
    cols = (zs.shape[1] > 1 and np.abs(
        zs[:, ::-1] + np.exp(1j * col_phase) * zs.conj()).max() <= tol)
    point = np.abs(zs[::-1, ::-1] + zs).max() <= tol
    if rows and cols and not point:
        cols = False
    if not (rows or cols or point):
        return None
    return rows, cols, row_phase if rows else col_phase


def _weighted_norms(zs, rows, nparts, weights):
    """sum_n weights[n] |rows_s c_n(z)|^2 for each block s of the rows.

    ``rows`` stacks nparts blocks of r rows each; returns (nparts, len(zs)).
    One GEMM of the rows with a thermal term's columns over all points, so
    one term's products are held at a time.
    """
    cols = displacement_columns_batch(zs, rows.shape[1], weights.shape[0])
    cols = np.ascontiguousarray(cols.transpose(2, 1, 0))      # [n, m, b]
    nb = cols.shape[2]
    # |y|^2 = y.re^2 + y.im^2: the real view interleaves the two along the
    # batch axis, so sum each (re, im) pair after squaring
    q = np.zeros((nparts, 2 * nb))
    for weight, col in zip(weights, cols):
        prods = (rows @ col).view(np.float64)           # [(part, r), B]
        prods = prods.reshape(nparts, -1, 2 * nb)
        q += weight * np.einsum("srB,srB->sB", prods, prods)
    return q.reshape(nparts, nb, 2).sum(axis=2)


def _reflected_grid(zs, reflections, rows, weights):
    """Grid values from columns built on one quadrant, or one half.

    With Phi = diag(conj(ph)^m), <m|D(ph conj(z))|n> =
    ph^(m-n) conj(<m|D(z)|n>), and the phase ph^-n of a column drops out of
    |.|^2, so value(ph conj(z)) = sum_n w_n |conj(R) Phi c_n(z)|^2. The
    image -ph conj(z) of the other axis takes conj(R) Phi P, and with
    P = diag((-1)^m), D(-z) = P D(z) P, so -z takes R P. The kept block is
    the first ceil(n/2) points of each reflected axis. The point mirror
    alone is the row reflection of the flat batch as one column, read by
    R P; its values come back in that (N, 1) shape.
    """
    flip_rows, flip_cols, phase = reflections
    levels = np.arange(rows.shape[1])
    parity = (-1.0) ** levels
    if flip_rows or flip_cols:
        turned = rows.conj() * np.exp(-1j * phase * levels)  # conj(R) Phi
    else:                                                    # z -> -z only
        zs, flip_rows, turned = zs.reshape(-1, 1), True, rows * parity
    n, n2 = zs.shape
    h = (n + 1) // 2 if flip_rows else n
    h2 = (n2 + 1) // 2 if flip_cols else n2
    blocks = [rows]
    if flip_rows and flip_cols:
        blocks.append(rows * parity)                         # z -> -z
    if flip_rows:
        blocks.append(turned)                                # x -> -x
    if flip_cols:
        blocks.append(turned * parity)                       # x' -> -x'
    q = _weighted_norms(zs[:h, :h2].ravel(), np.concatenate(blocks),
                        len(blocks), weights).reshape(-1, h, h2)
    lo, lo2 = n - h, n2 - h2
    out = np.empty(zs.shape)
    out[:h, :h2] = q[0]
    images = iter(q[1:])
    if flip_rows and flip_cols:
        out[h:, h2:] = next(images)[:lo, :lo2][::-1, ::-1]
    if flip_rows:
        out[h:, :h2] = next(images)[:lo][::-1]
    if flip_cols:
        out[:h, h2:] = next(images)[:, :lo2][:, ::-1]
    return out


def povm_grid_values(zs, s_dag, factor, weights, prefactor):
    """Outcome densities prefactor * sum_n weights[n] <u_n|rho|u_n>.

    u_n = s_dag @ D(z)|n>, evaluated for every z in the batch, and the state
    enters as a factor L (d x r) of rho = L L^H. With R = L^H s_dag
    (r x d), <u_n|rho|u_n> = |R c_n|^2 for the displacement column c_n, so
    each point costs r products of length d per thermal term, and
    ``measurement._thermal_weights`` keeps only the terms whose weight
    (1 - q) q^n is above 2^-53 of the first (the dropped ones move a value
    by at most prefactor |q|^N). The values are sums of squares, hence
    never negative while the weights are not; thermal weights are
    non-negative for q >= 0. The result has the shape of ``zs``, a 1-D
    batch or a 2-D outcome grid.

    Every batch, a 1-D one as a grid of one column, goes through one
    planner: with a row, column or point reflection (``_reflections``) it
    builds columns for one quadrant or one half only and reads the other
    points off stacked row blocks (``_reflected_grid``); with none it
    builds the columns of every point.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    if zs.size == 0:
        return np.zeros(zs.shape)
    rows = factor.conj().T @ s_dag                              # R, r x d
    grid = zs.reshape(zs.shape[0], -1)
    reflections = _reflections(grid)
    if reflections is None:
        vals = _weighted_norms(grid.ravel(), rows, 1, weights)[0]
    else:
        vals = _reflected_grid(grid, reflections, rows, weights)
    return (prefactor * vals).reshape(zs.shape)


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
    Real blocks, as a real smear step gives, are multiplied against the
    stacked real and imaginary parts of L in one real GEMM, with no complex
    copy of the blocks; the sums are those of the complex product, whose
    blocks have zero imaginary parts.
    """
    m_out = disp_mats.shape[1]
    blocks = np.ascontiguousarray(disp_mats.transpose(1, 2, 0))   # [m, n, k]
    if np.isrealobj(blocks):
        r = factor.shape[1]
        parts = np.concatenate([factor.real, factor.imag], axis=1)
        prods = np.matmul(parts.T, blocks)                        # [m, 2r, k]
        out = np.empty((m_out, r, blocks.shape[2]), np.complex128)
        out.real = prods[:, :r]
        out.imag = prods[:, r:]
    else:
        out = np.matmul(factor.T, blocks)                         # [m, r, k]
    out *= np.sqrt(weights)
    out = out.reshape(m_out, -1)
    return out @ out.conj().T, out

