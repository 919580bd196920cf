"""Displacement-element kernels: recurrence vs dense oracle and loops.

The dense oracle pads the generator well past the compared block so its own
truncation error stays below the comparison tolerance (measured 8e-13 at pad
40 for |z| up to ~2).
"""

import numpy as np
import pytest
from scipy.linalg import expm

from cvclone import _kernels

ZS = np.array([0.3 + 0.4j, -1.0 + 0.2j, 0.9j, 1.2 - 0.7j, 1.5 + 1.5j])


def _dense_displacement(z, dim):
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return expm(z * a.conj().T - np.conj(z) * a)


def test_recurrence_matches_padded_expm():
    for z in ZS:
        dense = _dense_displacement(z, 40)
        mine = _kernels.displacement_matrix(z, 40)
        assert np.abs(dense[:16, :16] - mine[:16, :16]).max() < 1e-11


def test_first_column_closed_form():
    # <m|D(z)|0> = exp(-|z|^2/2) z^m / sqrt(m!)
    z = 0.7 - 0.5j
    col = _kernels.displacement_columns(z, 12, 1)[:, 0]
    fact = 1.0
    for m in range(12):
        if m:
            fact *= m
        expect = np.exp(-0.5 * abs(z) ** 2) * z ** m / np.sqrt(fact)
        assert col[m] == pytest.approx(expect, abs=1e-14)


def test_first_row_closed_form():
    # <0|D(z)|n> = exp(-|z|^2/2) (-conj(z))^n / sqrt(n!)
    z = -0.4 + 0.9j
    row = _kernels.displacement_columns(z, 1, 10)[0]
    fact = 1.0
    for n in range(10):
        if n:
            fact *= n
        expect = np.exp(-0.5 * abs(z) ** 2) * (-np.conj(z)) ** n / np.sqrt(fact)
        assert row[n] == pytest.approx(expect, abs=1e-14)


def test_columns_are_near_orthonormal():
    # exact elements of a unitary: column overlaps approach delta_{nn'} as the
    # row cutoff grows; z small keeps the missing tail negligible
    cols = _kernels.displacement_columns(0.5 + 0.3j, 60, 6)
    gram = cols.conj().T @ cols
    assert np.abs(gram - np.eye(6)).max() < 1e-12


def test_batch_shape_and_consistency():
    batch = _kernels.displacement_columns_batch(ZS, 14, 5)
    assert batch.shape == (len(ZS), 14, 5)
    for k, z in enumerate(ZS):
        single = _kernels.displacement_columns(z, 14, 5)
        np.testing.assert_allclose(batch[k], single, atol=1e-14)


def test_povm_grid_values_against_loop():
    rng = np.random.default_rng(11)
    dim = 10
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    s_dag = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    zs = (rng.normal(size=7) + 1j * rng.normal(size=7))
    # fewer thermal weights than levels, then one weight per level
    for nth in (4, dim):
        weights = 0.7 * 0.3 ** np.arange(nth)
        got = np.asarray(_kernels.povm_grid_values(zs, s_dag, rho, weights,
                                                   0.42))
        for k, z in enumerate(zs):
            cols = _kernels.displacement_columns(z, dim, nth)
            acc = 0.0
            for n in range(nth):
                u = s_dag @ cols[:, n]
                acc += weights[n] * np.real(u.conj() @ rho @ u)
            assert got[k] == pytest.approx(0.42 * acc, rel=1e-12)


def test_smear_accumulate_against_loop():
    rng = np.random.default_rng(12)
    dim = 8
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    zs = rng.normal(size=5) + 1j * rng.normal(size=5)
    mats = _kernels.displacement_columns_batch(zs, dim, dim)
    wts = rng.random(5)
    got = np.asarray(_kernels.smear_accumulate(mats, wts, rho))
    expect = sum(w * (d @ rho @ d.conj().T) for w, d in zip(wts, mats))
    np.testing.assert_allclose(got, expect, atol=1e-13)
