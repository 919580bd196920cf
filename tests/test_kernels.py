"""Displacement-element kernels: recurrence vs dense oracle and loops.

The dense oracle pads the generator well past the compared block so its own
truncation error stays below the comparison tolerance (measured 8e-13 at pad
40 for |z| up to ~2).
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from cvclone import _kernels

ZS = np.array([0.3 + 0.4j, -1.0 + 0.2j, 0.9j, 1.2 - 0.7j, 1.5 + 1.5j])


def _columns(z, dim, ncols):
    """<m|D(z)|n> as a (dim, ncols) block: a batch of one."""
    return _kernels.displacement_columns_batch(np.array([z]), dim, ncols)[0]


def _dense_displacement(z, dim):
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return expm(z * a.conj().T - np.conj(z) * a)


def test_recurrence_matches_padded_expm():
    for z in ZS:
        dense = _dense_displacement(z, 40)
        mine = _columns(z, 40, 40)
        assert np.abs(dense[:16, :16] - mine[:16, :16]).max() < 1e-11


def test_recurrence_stays_accurate_on_long_ladders():
    # the column recurrence the diagonal one replaced was off by 0.18 on the
    # 64-level block at |z| = 3 and by 3.2 on the 96 x 32 block at |z| = 6
    for z, rows, ncols in ((3.0 * np.exp(0.7j), 64, 64), (6j, 96, 32),
                           (-6.0, 96, 32), (0.01 + 0.01j, 64, 64)):
        dense = _dense_displacement(z, 260)
        mine = _columns(z, rows, ncols)
        assert np.abs(dense[:rows, :ncols] - mine).max() < 1e-12


def test_first_column_closed_form():
    # <m|D(z)|0> = exp(-|z|^2/2) z^m / sqrt(m!)
    z = 0.7 - 0.5j
    col = _columns(z, 12, 1)[:, 0]
    fact = 1.0
    for m in range(12):
        if m:
            fact *= m
        expect = np.exp(-0.5 * abs(z) ** 2) * z ** m / np.sqrt(fact)
        assert col[m] == pytest.approx(expect, abs=1e-14)


def test_first_row_closed_form():
    # <0|D(z)|n> = exp(-|z|^2/2) (-conj(z))^n / sqrt(n!)
    z = -0.4 + 0.9j
    row = _columns(z, 1, 10)[0]
    fact = 1.0
    for n in range(10):
        if n:
            fact *= n
        expect = np.exp(-0.5 * abs(z) ** 2) * (-np.conj(z)) ** n / np.sqrt(fact)
        assert row[n] == pytest.approx(expect, abs=1e-14)


def test_columns_are_near_orthonormal():
    # exact elements of a unitary: column overlaps approach delta_{nn'} as the
    # row cutoff grows; z small keeps the missing tail negligible
    cols = _columns(0.5 + 0.3j, 60, 6)
    gram = cols.conj().T @ cols
    assert np.abs(gram - np.eye(6)).max() < 1e-12


def test_batch_shape_and_consistency():
    batch = _kernels.displacement_columns_batch(ZS, 14, 5)
    assert batch.shape == (len(ZS), 14, 5)
    for k, z in enumerate(ZS):
        single = _columns(z, 14, 5)
        np.testing.assert_allclose(batch[k], single, atol=1e-14)


def test_displacement_symmetries_hold_bit_for_bit():
    # one build serves a symmetric smear's two passes, and one quadrant an
    # outcome grid at a right angle, because the diagonal recurrence keeps
    # D(conj z) = conj D(z), D(i t) = i^(m-n) D(t) and
    # D(-z) = (-1)^(m+n) D(z) exactly
    rng = np.random.default_rng(30)
    dim = 64
    zs = 7.0 * np.sqrt(rng.random(300)) * np.exp(2j * np.pi * rng.random(300))
    ts = np.concatenate([np.linspace(-7.0, 7.0, 57), rng.normal(size=20)])
    m, n = np.ogrid[:dim, :dim]
    quarter = np.array([1.0, 1j, -1.0, -1j])[(m - n) % 4]
    batch = _kernels.displacement_columns_batch
    d = batch(zs, dim, dim)
    assert np.array_equal(batch(zs.conj(), dim, dim), d.conj())
    assert np.array_equal(batch(-zs, dim, dim), (-1.0) ** (m + n) * d)
    assert np.array_equal(batch(1j * ts, dim, dim), quarter * batch(ts, dim,
                                                                    dim))


def _scatter_columns(zs, dim, ncols):
    """The diagonal recurrence for one z at a time, <m|D(z)|n>."""
    rows = max(dim, ncols)
    out = np.empty((len(zs), rows, ncols), np.complex128)
    for b, z in enumerate(zs):
        x = z.real**2 + z.imag**2
        steps = np.concatenate([[np.exp(-0.5 * x)],
                                z * (1.0 / np.sqrt(np.arange(1.0, rows)))])
        diag = [np.cumprod(steps)]                  # diag[n][k] = <n+k|D|n>
        for n in range(ncols - 1):
            k = np.arange(rows - n - 1, dtype=np.float64)
            nxt = ((2 * n + 1) + k - x) * diag[n][:-1]
            if n:
                nxt -= np.sqrt(n * (n + k)) * diag[n - 1][:-2]
            nxt *= 1.0 / np.sqrt((n + 1) * (n + 1 + k))
            diag.append(nxt)
        for n in range(ncols):
            out[b, n:, n] = diag[n]
            for m in range(n):
                out[b, m, n] = (-1.0) ** (m + n) * np.conj(diag[m][n - m])
    return out[:, :dim]


@pytest.mark.parametrize("dim,ncols", [(12, 1), (12, 5), (12, 12),
                                       (1, 1), (30, 30)])
def test_batch_columns_equal_scatter_reference(dim, ncols):
    rng = np.random.default_rng(dim * 100 + ncols)
    zs = 1.5 * (rng.normal(size=37) + 1j * rng.normal(size=37))
    got = _kernels.displacement_columns_batch(zs, dim, ncols)
    assert got.shape == (37, dim, ncols)
    assert np.array_equal(got, _scatter_columns(zs, dim, ncols))


def _factors(rng, dim, ranks):
    """Random state factors L (dim x r), normalised so L L^H has trace 1."""
    out = []
    for r in ranks:
        m = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
        out.append(m / np.linalg.norm(m))
    return out


def test_povm_grid_values_against_loop():
    # pure (r = 1), low-rank and full-rank (r = dim) factors of rho = L L^H
    rng = np.random.default_rng(11)
    dim = 10
    s_dag = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    zs = (rng.normal(size=7) + 1j * rng.normal(size=7))
    for factor in _factors(rng, dim, (1, 3, dim)):
        rho = factor @ factor.conj().T
        # fewer thermal weights than levels, then one weight per level
        for nth in (4, dim):
            weights = 0.7 * 0.3 ** np.arange(nth)
            got = np.asarray(_kernels.povm_grid_values(zs, s_dag, factor,
                                                       weights, 0.42))
            for k, z in enumerate(zs):
                cols = _columns(z, dim, nth)
                acc = 0.0
                for n in range(nth):
                    u = s_dag @ cols[:, n]
                    acc += weights[n] * np.real(u.conj() @ rho @ u)
                assert got[k] == pytest.approx(0.42 * acc, rel=1e-12)


def test_smear_accumulate_against_loop():
    rng = np.random.default_rng(12)
    dim = 8
    zs = rng.normal(size=5) + 1j * rng.normal(size=5)
    mats = _kernels.displacement_columns_batch(zs, dim, dim)
    wts = rng.random(5)
    for factor in _factors(rng, dim, (1, 3, dim)):
        rho = factor @ factor.conj().T
        got, out = _kernels.smear_accumulate(mats, wts, factor)
        expect = sum(w * (d @ rho @ d.conj().T) for w, d in zip(wts, mats))
        np.testing.assert_allclose(got, expect, atol=1e-13)
        # the returned factor is [sqrt(w_k) D_k L]_k, and mix = F F^H
        assert out.shape == (dim, 5 * factor.shape[1])
        np.testing.assert_allclose(out @ out.conj().T, expect, atol=1e-13)


def test_smear_accumulate_rectangular_blocks_against_loop():
    # a tall block D[:m, :n] spreads an n-level state onto m levels, and a
    # wide one D[:n, :m] brings an m-level state back down
    rng = np.random.default_rng(15)
    short, tall = 6, 11
    zs = rng.normal(size=4) + 1j * rng.normal(size=4)
    wts = rng.random(4)
    up = _kernels.displacement_columns_batch(zs, tall, short)
    down = _kernels.displacement_columns_batch(-zs, tall, short)
    for mats, n_in in ((up, short), (down.transpose(0, 2, 1), tall)):
        m_out = mats.shape[1]
        for factor in _factors(rng, n_in, (1, 2, n_in)):
            rho = factor @ factor.conj().T
            got, out = _kernels.smear_accumulate(mats, wts, factor)
            assert got.shape == (m_out, m_out)
            assert out.shape == (m_out, 4 * factor.shape[1])
            expect = sum(w * (d @ rho @ d.conj().T)
                         for w, d in zip(wts, mats))
            np.testing.assert_allclose(got, expect, atol=1e-13)


def test_povm_grid_values_mirror_batch_against_loop():
    rng = np.random.default_rng(13)
    dim = 11
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    s_dag = np.linalg.qr(m)[0]
    weights = 0.7 * 0.3 ** np.arange(6)
    for factor in _factors(rng, dim, (1, 4, dim)):
        rho = factor @ factor.conj().T
        for count in (9, 10):                    # with and without z = 0
            half = (rng.normal(size=count // 2)
                    + 1j * rng.normal(size=count // 2))
            middle = [0j] if count % 2 else []
            zs = np.concatenate([half, middle, -half[::-1]])
            got = _kernels.povm_grid_values(zs, s_dag, factor, weights, 0.42)
            for k, z in enumerate(zs):
                cols = _columns(z, dim, len(weights))
                u = s_dag @ cols
                acc = np.einsum("mn,mk,kn,n->", u.conj(), rho, u,
                                weights).real
                assert got[k] == pytest.approx(0.42 * acc, rel=1e-12,
                                               abs=1e-15)
