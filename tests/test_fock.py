"""Truncated Fock backend: states, operators, evolution, mixtures."""

import dataclasses
import inspect
import linecache
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import expm as scipy_expm
from scipy.special import jv

from cvclone import _kernels, checks, fock, measurement, network
from cvclone.errors import (GridTooCoarseError, InvalidArgumentError,
                            TruncationOverflowError, TruncationWarning)


def test_coherent_series():
    alpha = 0.6 - 0.3j
    vec = fock.coherent_fock(alpha, 18)
    raw = np.array([alpha ** n / math.sqrt(math.factorial(n))
                    for n in range(18)])
    raw = raw / np.linalg.norm(raw)
    np.testing.assert_allclose(vec.amplitudes, raw, atol=1e-14)
    assert vec.norm() == pytest.approx(1.0, abs=1e-14)


def test_coherent_truncation_policy():
    # dropped norm 1 - e^-|alpha|^2 sum_{n<dim} |alpha|^2n / n!
    with pytest.raises(TruncationOverflowError,
                       match="drops 2.20e-02 .*raise truncation"):
        fock.coherent_fock(3.0, 16)
    with pytest.warns(TruncationWarning, match="drops 8.13e-03"):
        vec = fock.coherent_fock(2.0, 10)
    assert vec.norm() == pytest.approx(1.0, abs=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        fock.coherent_fock(1.0, 8)                  # drops 1.0e-05


def test_guard_band_warnings_name_the_calling_line():
    # the coherent input's dropped norm and the network's guard-band leakage
    # share one policy; each warning still points at the line that called
    # into the module, and each refusal keeps its message
    with pytest.warns(TruncationWarning, match="drops 8.13e-03") as rec:
        fock.coherent_fock(2.0, 10)
    (warned,) = rec
    assert warned.filename == __file__
    assert (linecache.getline(__file__, warned.lineno).strip()
            == "fock.coherent_fock(2.0, 10)")
    spec = network.network_from_lambda(3.0)
    with pytest.warns(TruncationWarning,
                      match="^guard-band leakage 2.28e-03 after merged "
                            "network$") as rec:
        network.run_cloner(0.5, spec, backend="fock", truncation=12)
    # run_cloner's call of apply_network_fock spans two lines
    lines, start = inspect.getsourcelines(network.run_cloner)
    call = start + next(k for k, line in enumerate(lines)
                        if "fock.apply_network_fock(" in line)
    (warned,) = rec
    assert warned.filename == network.__file__
    assert warned.lineno in (call, call + 1)
    with pytest.raises(TruncationOverflowError,
                       match="^guard-band leakage 1.14e-02 after merged "
                             "network; raise truncation$"):
        network.run_cloner(2.2, spec, backend="fock", truncation=20)


@pytest.mark.parametrize("dim", [-1, 0, 1])
def test_modes_below_two_levels_are_refused(dim):
    # dim 0 once reached the write of amplitude 0 and raised IndexError
    with pytest.raises(InvalidArgumentError, match="dimension >= 2"):
        fock.coherent_fock(0.3, dim)
    with pytest.raises(InvalidArgumentError, match="dimension >= 2"):
        fock.vacuum_fock((4, dim))
    with pytest.raises(InvalidArgumentError, match="dimension >= 2"):
        fock.vacuum_fock((dim,))


@pytest.mark.parametrize("dim", [-1, 0, 1])
def test_lowering_operator_shares_the_mode_dimension_rule(dim):
    with pytest.raises(InvalidArgumentError,
                       match="^every mode needs dimension >= 2$"):
        fock.annihilation_matrix(dim)


@pytest.mark.parametrize("alpha", [complex("nan"), complex(0.0, math.inf),
                                   -math.inf, math.nan])
def test_coherent_fock_refuses_non_finite_amplitude(alpha):
    # NaN once surfaced as a TruncationOverflowError advising more levels
    with pytest.raises(InvalidArgumentError, match="is not finite"):
        fock.coherent_fock(alpha, 16)



@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_density_quadrature_moments_refuse_a_non_finite_phase(phase):
    # a non-finite phase once returned (nan, nan) after a RuntimeWarning
    # from np.exp
    rho = fock.DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    with pytest.raises(InvalidArgumentError, match="^phase must be finite$"):
        rho.quadrature_moments(phase)

def test_single_mode_inputs_convert_alike():
    # a vector is one normalised column; a density matrix, full rank or
    # not, gives L with L L^H equal to its matrix
    vec = fock.FockVector((6,), 2.0 * fock.coherent_fock(0.4j, 6).amplitudes)
    col = fock._factor(vec)
    assert col.shape == (6, 1)
    rho = col @ col.conj().T
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(16)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for mat in (rho, m[:, :2] @ m[:, :2].conj().T, m @ m.conj().T):
        state = fock.DensityMatrix(mat / np.trace(mat).real)
        factor = fock._factor(state)
        np.testing.assert_allclose(factor @ factor.conj().T, state.matrix,
                                   rtol=0, atol=1e-15)
    with pytest.raises(InvalidArgumentError, match="single-mode"):
        fock.smeared_mixture(fock.vacuum_fock((6, 6)))
    with pytest.raises(InvalidArgumentError, match="DensityMatrix or"):
        fock.smeared_mixture(np.eye(6) / 6.0)
    with pytest.raises(InvalidArgumentError, match="unrecognized f_spec"):
        fock.smeared_mixture(fock.vacuum_fock((6,)), {"symmetric": True})


def test_tensor_layout_is_mode_major():
    # flat index (n_c d_a + n_a) d_b + n_b
    c = fock.FockVector((2,), np.array([0.0, 1.0], np.complex128))
    a = fock.FockVector((3,), np.array([0.0, 0.0, 1.0], np.complex128))
    b = fock.vacuum_fock((2,))
    full = fock.tensor(c, a, b)
    assert full.dims == (2, 3, 2)
    flat = (1 * 3 + 2) * 2 + 0
    expect = np.zeros(12)
    expect[flat] = 1.0
    np.testing.assert_array_equal(full.amplitudes.real, expect)


def test_vector_validation():
    with pytest.raises(InvalidArgumentError):
        fock.FockVector((3,), np.zeros(4, np.complex128))
    with pytest.raises(InvalidArgumentError):
        fock.FockVector((1,), np.zeros(1, np.complex128))


def test_leakage_counts_top_levels():
    amps = np.zeros(5, np.complex128)
    amps[4] = 1.0
    assert fock.FockVector((5,), amps).leakage() == pytest.approx(1.0)
    amps = np.zeros(25, np.complex128)
    amps[0] = math.sqrt(0.91)
    amps[5 * 0 + 4] = math.sqrt(0.09)  # mode b at its edge
    assert fock.FockVector((5, 5), amps).leakage() == pytest.approx(0.09)


def test_leak_check_refuses_nan():
    # NaN > 1e-2 is False, so a bare comparison would let it through
    with pytest.raises(TruncationOverflowError,
                       match="leakage nan after merged network"):
        fock._guard_band(math.nan,
                         "guard-band leakage nan after merged network", 1)
    # a NaN state no longer reaches the leak check: the vector refuses it
    amps = np.zeros(27, np.complex128)
    amps[0] = math.nan
    with pytest.raises(InvalidArgumentError, match="not finite"):
        fock.FockVector((3, 3, 3), amps)


def test_generators_are_anti_hermitian():
    for kind in ("A", "B", "C"):
        g = fock.build_generator(kind, (5, 5, 5)).toarray()
        assert np.abs(g + g.conj().T).max() == 0.0


def _squeeze_generator(xi, d):
    """(xi a^dag^2 - conj(xi) a^2) / 2 on d levels, entry by entry."""
    gen = np.zeros((d, d), np.complex128)
    for n in range(d - 2):
        w = 0.5 * math.sqrt((n + 1) * (n + 2))
        gen[n + 2, n] = xi * w
        gen[n, n + 2] = -np.conj(xi) * w
    return gen


@pytest.mark.parametrize("d", [8, 16, 32])
@pytest.mark.parametrize("xi", [1e-7, 0.3, 0.9 * np.exp(0.4j), math.log(4.0),
                                1.5 * np.exp(2j)],
                         ids=["1e-7", "0.3", "0.9e^0.4i", "ln4", "1.5e^2i"])
def test_squeeze_matrix_against_scipy(d, xi):
    got = fock.squeeze_matrix(xi, d)
    np.testing.assert_allclose(got, scipy_expm(_squeeze_generator(xi, d)),
                               rtol=0, atol=5e-15)
    # unitary to a few ulps: a dense Taylor scaling-and-squaring misses this
    # bound, by 3.9e-15 to 1.9e-14 at d = 32 for xi >= 0.3
    unitarity = np.abs(got.conj().T @ got - np.eye(d)).max()
    assert unitarity < 3e-15


def test_expm_apply_against_dense():
    rng = np.random.default_rng(5)
    d = 40
    m = rng.normal(size=(d, d))
    gen = 0.4 * (m - m.T)  # anti-symmetric, well-conditioned
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    got = fock.expm_apply(gen, vec)
    np.testing.assert_allclose(got, scipy_expm(gen) @ vec, atol=1e-11)

    # the network's sparse generators at d = 8: single stages, the merged
    # A/B mix, and at lam = 12 1-norms near 156, which take 216 products
    dims = (8, 8, 8)
    gens = {k: fock.build_generator(k, dims) for k in "ABC"}
    state = fock.tensor(fock.coherent_fock(0.4 - 0.2j, 8),
                        fock.vacuum_fock((8, 8))).amplitudes
    block = rng.normal(size=(8 ** 3, 3)) + 1j * rng.normal(size=(8 ** 3, 3))
    block /= np.linalg.norm(block, axis=0)
    norms = []
    for lam in (0.8, 4.0, 12.0):
        s1, s2, s3 = (st.strength
                      for st in network.network_from_lambda(lam).stages)
        mats = [gens["C"] * s1, gens["A"] * s2, gens["C"] * s3,
                gens["A"] * (s2 * math.cosh(s3))
                + gens["B"] * (s2 * math.sinh(s3))]
        for mat in mats:
            norms.append(float(abs(mat).sum(axis=0).max()))
            dense = scipy_expm(mat.toarray())
            np.testing.assert_allclose(fock.expm_apply(mat, state),
                                       dense @ state, atol=1e-12)
            np.testing.assert_allclose(fock.expm_apply(mat, block),
                                       dense @ block, atol=1e-12)
    assert max(norms) > 150.0

    # the zero generator returns a copy of the input, unchanged
    zero = 0.0 * gens["A"]
    got = fock.expm_apply(zero, block)
    np.testing.assert_array_equal(got, block)
    assert got is not block


def _reference_expm_apply(mat, vec):
    """exp(mat) vec by the scaled Taylor loop, with an exact norm on every term.

    An algorithm independent of ``fock.expm_apply``'s Chebyshev sum: s steps
    of exp(mat / s), each a Taylor series of at most m terms that stops
    once the inf-norms of the last two terms sum to under 2^-53 times that
    of the partial sum (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)), all in complex arithmetic.
    """
    theta = {20: 1.4, 25: 2.4, 30: 3.5, 35: 4.7, 40: 6.0, 45: 7.2,
             50: 8.5, 55: 9.9}
    mat = mat.astype(np.complex128)
    v = np.array(vec, dtype=np.complex128)
    norm = float(np.abs(mat).sum(axis=0).max())
    m, s = min(((m, math.ceil(norm / t)) for m, t in theta.items()),
               key=lambda ms: ms[0] * ms[1])

    def inf_norm(block):
        return float(np.abs(block).reshape(block.shape[0], -1)
                     .sum(axis=1).max())

    for _ in range(s):
        term = v
        c1 = inf_norm(term)
        for j in range(1, m + 1):
            term = mat @ term
            term *= 1.0 / (s * j)
            v += term
            c2 = inf_norm(term)
            if c1 + c2 <= 2.0 ** -53 * inf_norm(v):
                break
            c1 = c2
    return v


@pytest.mark.parametrize("d", [8, 12])
def test_expm_apply_stops_where_every_norm_is_exact(d):
    # the network generators at both ends of the coupling range, on a
    # complex state and on a complex three-column block: the Chebyshev sum,
    # cut where its Bessel tail is below 2^-53, agrees with the Taylor loop
    # that checks an exact norm on every term
    rng = np.random.default_rng(d)
    gens = {k: fock.build_generator(k, (d,) * 3) for k in "ABC"}
    state = fock.tensor(fock.coherent_fock(0.4 - 0.2j, d),
                        fock.vacuum_fock((d, d))).amplitudes
    block = rng.normal(size=(d ** 3, 3)) + 1j * rng.normal(size=(d ** 3, 3))
    block /= np.linalg.norm(block, axis=0)
    for lam in (0.8, 4.0, 12.0):
        s1, s2, s3 = (st.strength
                      for st in network.network_from_lambda(lam).stages)
        for mat in (gens["C"] * s1, gens["A"] * s2, gens["C"] * s3,
                    gens["A"] * (s2 * math.cosh(s3))
                    + gens["B"] * (s2 * math.sinh(s3))):
            for vec in (state, block):
                np.testing.assert_allclose(fock.expm_apply(mat, vec),
                                           _reference_expm_apply(mat, vec),
                                           rtol=0, atol=1e-12)


def test_expm_apply_on_the_unitarity_block_is_exact_reference():
    # the 64 interior columns of verify's unitarity block, through every
    # stage in turn, against the Taylor reference and dense expm
    d = 8
    gens = {k: fock.build_generator(k, (d,) * 3) for k in "ABC"}
    keep = np.arange(d) < d - 4
    mask = (keep[:, None, None] & keep[None, :, None]
            & keep[None, None, :]).ravel()
    got = want = np.eye(d ** 3, dtype=np.complex128)[:, mask]
    assert got.shape[1] == 64
    for lam in (0.8, 12.0):
        for st in network.network_from_lambda(lam).stages:
            mat = gens[st.kind] * st.strength
            dense = scipy_expm(mat.toarray()) @ want
            got = fock.expm_apply(mat, got)
            want = _reference_expm_apply(mat, want)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rho", [0.5, 42.0, 94.0, 456.0])
def test_chebyshev_coefficients_are_bessel_values(rho):
    coef = fock._chebyshev_coefficients(rho)
    k = np.arange(len(coef) + 60)
    ref = jv(k, rho)
    # against 40-digit values, the weights 2 J_k from scipy's jv are off by
    # up to 1.8e-14 at rho = 456, those of the backward recurrence by 2e-16
    np.testing.assert_allclose(coef[0], ref[0], rtol=0, atol=1e-13)
    np.testing.assert_allclose(coef[1:], 2.0 * ref[1:len(coef)],
                               rtol=0, atol=1e-13)
    # the sum stops at the first K whose tail 2 sum_{k >= K} |J_k| < 2^-53
    tail = 2.0 * np.cumsum(np.abs(ref[::-1]))[::-1]
    assert tail[len(coef)] < 2.0 ** -53 <= tail[len(coef) - 1]


def _spy_products(monkeypatch):
    """Record the shape of every DIA product of the Chebyshev loop."""
    products = []
    real = fock._dia_matvec_add

    def spy(data, offsets, x, y):
        products.append(y.shape)
        return real(data, offsets, x, y)

    monkeypatch.setattr(fock, "_dia_matvec_add", spy)
    return products


@pytest.mark.parametrize("lam", [1.0, 3.0, 12.0])
def test_merged_run_at_d25_takes_under_135_products(monkeypatch, lam):
    # at d = 25 the chain bound on the mixed factor's 2-norm is about 80 at
    # every lam, for which the Chebyshev sum needs 128 products (145 under
    # its 1-norm, about 94)
    products = _spy_products(monkeypatch)
    network.run_cloner(0.3 - 0.2j, network.network_from_lambda(lam),
                       backend="fock", truncation=25)
    assert 0 < len(products) < 135
    assert set(products) == {(25 ** 3,)}


def _merged(d, lam):
    s1, s2, s3 = (st.strength
                  for st in network.network_from_lambda(lam).stages)
    return fock._merged_factor((d,) * 3, s2, s3)


@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_merged_bound_lies_between_the_two_norm_and_the_one_norm(d):
    # the chain bound on ||K||_2 is an upper bound, 4-11% above the exact
    # norm at these sizes, and at most 0.86 of the 1-norm it replaces
    for lam in (0.05, 0.8, 3.0, 6.0, 12.0):
        mixed, bound = _merged(d, lam)
        dense = mixed.toarray()
        assert bound >= np.abs(np.linalg.eigvals(dense)).max()
        assert bound <= 0.86 * np.abs(dense).sum(axis=0).max()
    # scaled by the bound, the sum still meets dense expm on both ends of
    # the coupling range
    if d <= 8:
        rng = np.random.default_rng(d)
        vec = rng.normal(size=d ** 3) + 1j * rng.normal(size=d ** 3)
        vec /= np.linalg.norm(vec)
        for lam in (0.8, 12.0):
            mixed, bound = _merged(d, lam)
            np.testing.assert_allclose(
                fock.expm_apply(mixed, vec, bound),
                scipy_expm(mixed.toarray()) @ vec, rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, terms", [(12, 71), (16, 89), (20, 107),
                                      (25, 129)])
def test_merged_factor_term_counts(monkeypatch, d, terms):
    # under the chain bound the same at every coupling; under the 1-norm the
    # sums took 82, 102, 122 and 146 terms
    products = _spy_products(monkeypatch)
    vec = np.zeros(d ** 3)
    vec[0] = 1.0
    for lam in (1.0, 3.0, 8.0, 12.0):
        products.clear()
        mixed, bound = _merged(d, lam)
        fock.expm_apply(mixed, vec, bound)
        assert len(products) + 1 == terms


def test_expm_apply_bound_only_tightens():
    mixed, bound = _merged(6, 3.0)
    one_norm = float(abs(mixed).sum(axis=0).max())
    vec = np.random.default_rng(3).normal(size=6 ** 3)
    # a bound above the 1-norm leaves the 1-norm in charge, to the bit
    np.testing.assert_array_equal(fock.expm_apply(mixed, vec, 2.0 * one_norm),
                                  fock.expm_apply(mixed, vec))
    np.testing.assert_allclose(fock.expm_apply(mixed, vec, bound),
                               fock.expm_apply(mixed, vec), rtol=0,
                               atol=1e-13)
    # no 2-norm lies below the largest column norm, nor is one infinite
    column = float(np.sqrt(np.square(mixed.toarray()).sum(axis=0)).max())
    for bad in (0.0, -1.0, 0.999 * column, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match="bound"):
            fock.expm_apply(mixed, vec, bad)
    fock.expm_apply(mixed, vec, column * (1.0 + 1e-9))


def test_expm_apply_refuses_vectors_of_the_wrong_shape():
    gen = fock.build_generator("A", (4, 4, 4))
    for mat in (gen, gen.toarray()):
        for vec in (np.ones(63), np.ones(0), np.ones((64, 2, 2)),
                    np.float64(1.0)):
            with pytest.raises(InvalidArgumentError, match="shape"):
                fock.expm_apply(mat, vec)
    assert fock.expm_apply(gen, np.ones((64, 2))).shape == (64, 2)


def test_dia_matvec_add_matches_scipy_product():
    # the helper calls scipy's private routines: a release that changes
    # them fails here, against the public dia_matrix product
    rng = np.random.default_rng(29)
    gen = fock.build_generator("A", (5, 5, 5))
    a, b = fock.build_generator("A", (6, 6, 6)), fock.build_generator(
        "B", (6, 6, 6))
    mixed = fock._merged_factor((6, 6, 6), 0.7, 0.4)[0]
    # gen on 130 levels, the last five idle: DIA data narrower than n
    narrow = sp.dia_matrix((gen.data, gen.offsets), shape=(130, 130))
    for mat in (a, b, mixed, narrow, 0.3j * narrow):
        n = mat.shape[0]
        data = np.ascontiguousarray(mat.data)
        for shape in ((n,), (n, 3)):
            for dtype in (np.float64, np.complex128):
                if data.dtype == np.complex128 and dtype == np.float64:
                    continue
                x = rng.normal(size=shape).astype(dtype)
                y = rng.normal(size=shape).astype(dtype)
                if dtype == np.complex128:
                    x += 1j * rng.normal(size=shape)
                want = mat @ x + y
                fock._dia_matvec_add(data.astype(dtype), mat.offsets, x, y)
                np.testing.assert_allclose(y, want, rtol=0, atol=1e-13)
    # it refuses what the C routine would read or write past
    data, offsets = a.data, a.offsets
    x, y = np.ones(216), np.zeros(216)
    for args in ((data, offsets, np.ones(215), y),
                 (data, offsets, x, np.zeros(215)),
                 (data, offsets, x.astype(np.complex128), y),
                 (data, offsets, x, y.astype(np.complex128)),
                 (data, offsets, np.ones(432)[::2], y),
                 (data, offsets[:1], x, y),
                 (data, offsets, np.ones((216, 2)), np.zeros((216, 3))),
                 (data, offsets, np.ones((216, 2, 1)), np.zeros((216, 2, 1))),
                 (data, offsets, np.ones(()), np.zeros(())),
                 (np.asfortranarray(data), offsets, x, y)):
        with pytest.raises(InvalidArgumentError, match="mismatched"):
            fock._dia_matvec_add(*args)


def test_expm_apply_refuses_non_anti_hermitian_generators():
    gen = fock.build_generator("A", (5, 5, 5))
    vec = np.ones(125)
    upper = sp.dia_matrix((gen.data[:1], gen.offsets[:1]), shape=gen.shape)
    # gen on 130 levels, the last five idle: DIA data narrower than the matrix
    narrow = sp.dia_matrix((gen.data, gen.offsets), shape=(130, 130))
    a = fock.annihilation_matrix(16).astype(np.complex128)
    for mat in (abs(gen), 1j * gen, upper, gen + sp.identity(125),
                abs(gen).tocsr(), abs(gen.toarray()), abs(narrow),
                np.array([[0.0, 1.0], [-1.0, 1e-300]]),
                # dense input: not 2-D, not square, and the squeezer's
                # generator as a product of lowering matrices, whose two
                # diagonals differ in their last bit
                1j * np.arange(1.0, 4.0), np.zeros((3, 4)),
                0.5 * ((0.3 + 0.4j) * a.T @ a.T - (0.3 - 0.4j) * a @ a)):
        with pytest.raises(InvalidArgumentError, match="anti-Hermitian"):
            fock.expm_apply(mat, np.ones(mat.shape[0]))
    # the same generator in other storage passes and agrees to rounding
    want = fock.expm_apply(gen, vec)
    for mat in (gen.tocsr(), gen.toarray(), (1j * gen) * -1j):
        np.testing.assert_allclose(fock.expm_apply(mat, vec), want,
                                   rtol=0, atol=1e-13)
    got = fock.expm_apply(narrow, np.ones(130))
    np.testing.assert_allclose(got[:125], want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(got[125:], 1.0)


def test_expm_apply_keeps_real_arithmetic_real():
    gens = {k: fock.build_generator(k, (6, 6, 6)) for k in "ABC"}
    assert gens["A"].dtype == np.float64
    mat = 0.7 * gens["A"] + 0.3 * gens["B"]
    rng = np.random.default_rng(11)
    vec = rng.normal(size=6 ** 3)
    dense = scipy_expm(mat.toarray())
    got = fock.expm_apply(mat, vec)
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, dense @ vec, atol=1e-12)
    cvec = vec + 1j * rng.normal(size=6 ** 3)
    got = fock.expm_apply(mat, cvec)
    assert got.dtype == np.complex128
    np.testing.assert_allclose(got, dense @ cvec, atol=1e-12)
    # a real input is copied, never evolved in place
    assert fock.expm_apply(mat, vec) is not vec


def _kron_ann(dims, mode):
    """Dense lowering operator of one mode, by explicit Kronecker products."""
    out = np.eye(1)
    for k, d in enumerate(dims):
        out = np.kron(out, np.diag(np.sqrt(np.arange(1.0, d)), 1) if k == mode
                      else np.eye(d))
    return out


def test_pair_generator_matches_kronecker_products():
    dims = (3, 4, 2)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ai, aj = _kron_ann(dims, i), _kron_ann(dims, j)
            squeezer = fock.pair_generator("squeezer", dims, i, j).toarray()
            splitter = fock.pair_generator("splitter", dims, i, j).toarray()
            np.testing.assert_array_equal(squeezer, ai @ aj - ai.T @ aj.T)
            np.testing.assert_array_equal(splitter, ai.T @ aj - ai @ aj.T)


def test_network_generators_are_pair_generators():
    dims = (5, 5, 5)
    gens = {"A": ("squeezer", 2, 0), "B": ("splitter", 1, 0),
            "C": ("squeezer", 1, 2)}
    for kind, (pair, i, j) in gens.items():
        got = fock.build_generator(kind, dims).toarray()
        np.testing.assert_array_equal(
            got, fock.pair_generator(pair, dims, i, j).toarray())


def test_pair_generator_is_cached_once_per_pair():
    dims = (5, 6, 7)
    for kind, pair, i, j in (("A", "squeezer", 2, 0), ("B", "splitter", 1, 0),
                             ("C", "squeezer", 1, 2)):
        gen = fock.pair_generator(pair, dims, i, j)
        assert not gen.data.flags.writeable
        assert fock.pair_generator(pair, list(dims), i, j) is gen
        assert fock.build_generator(kind, dims) is gen
        assert fock.build_generator(kind, list(dims)) is gen


def test_pair_generator_validation():
    for kind, i, j in (("squeezer", 0, 0), ("splitter", 0, 3),
                       ("squeezer", -1, 1), ("mixer", 0, 1)):
        with pytest.raises(InvalidArgumentError):
            fock.pair_generator(kind, (4, 4, 4), i, j)


@pytest.mark.parametrize("kind", ["squeezer", "splitter"])
@pytest.mark.parametrize("dims", [(3, 5, 4), (6, 4, 5)])
def test_pair_expm_apply_against_dense_expm(kind, dims):
    # every ordered pair, so chains run along either mode and are padded to
    # the shorter one; scipy's own error at strength 12 is up to 2e-13
    n = math.prod(dims)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    block = rng.normal(size=(n, 3))
    inputs = (vec / np.linalg.norm(vec), vec.real / np.linalg.norm(vec.real),
              block / np.linalg.norm(block, axis=0))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            gen = fock.pair_generator(kind, dims, i, j).toarray()
            for strength in (-0.7, 0.0, 1.2, 12.0):
                dense = scipy_expm(strength * gen)
                for x in inputs:
                    got = fock.pair_expm_apply(kind, dims, i, j, strength, x)
                    assert got.shape == x.shape
                    np.testing.assert_allclose(got, dense @ x, rtol=0,
                                               atol=1e-12)


@pytest.mark.parametrize("seed", [21, 1234])
def test_pair_expm_apply_matches_chebyshev_at_d25(seed):
    dims = (25,) * 3
    rng = np.random.default_rng(seed)
    for _ in range(5):
        gates, alphas = checks._random_circuit(rng)
        want = fock.tensor(*[fock.coherent_fock(al, 25)
                             for al in alphas]).amplitudes
        got = want
        for kind, i, j, s in gates:
            pair = "squeezer" if kind == "tms" else "splitter"
            want = fock.expm_apply(s * fock.pair_generator(pair, dims, i, j),
                                   want)
            got = fock.pair_expm_apply(pair, dims, i, j, s, got)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_pair_expm_apply_keeps_real_arithmetic_real():
    dims = (4, 6, 5)
    vec = np.random.default_rng(5).normal(size=120)
    for kind in ("squeezer", "splitter"):
        got = fock.pair_expm_apply(kind, dims, 2, 1, 0.6, vec)
        assert got.dtype == np.float64
        same = fock.pair_expm_apply(kind, dims, 2, 1, 0.0, vec)
        assert same is not vec
        np.testing.assert_array_equal(same, vec)
    got = fock.pair_expm_apply("squeezer", dims, 0, 1, 0.6, vec + 0j)
    assert got.dtype == np.complex128


def test_pair_tables_are_shared_by_pairs_of_equal_dims():
    dims = (6, 6, 6)
    vec = np.ones(216)
    fock._pair_chains.cache_clear()
    for i, j in ((0, 1), (1, 2), (2, 0)):
        fock.pair_expm_apply("splitter", dims, i, j, 0.4, vec)
    info = fock._pair_chains.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert not any(arr.flags.writeable
                   for arr in fock._pair_chains("splitter", 6, 6))


def test_pair_expm_apply_validation():
    vec = np.ones(64)
    for kind, i, j, strength in (("squeezer", 0, 0, 0.1),
                                 ("splitter", 0, 3, 0.1),
                                 ("squeezer", -1, 1, 0.1),
                                 ("mixer", 0, 1, 0.1),
                                 ("squeezer", 0, 1, math.nan),
                                 ("splitter", 0, 1, math.inf),
                                 ("squeezer", 0, 1, 0.1j)):
        with pytest.raises(InvalidArgumentError):
            fock.pair_expm_apply(kind, (4, 4, 4), i, j, strength, vec)
    with pytest.raises(InvalidArgumentError):
        fock.pair_expm_apply("squeezer", (4, 4, 4), 0, 1, 0.1, np.ones(63))


def test_operator_dag_and_apply():
    ann = fock.annihilation_matrix(6)
    vec = fock.coherent_fock(0.5, 6)
    lowered = ann @ vec.amplitudes
    # coherent states are annihilation eigenvectors up to the truncated tail
    np.testing.assert_allclose(lowered[:4], 0.5 * vec.amplitudes[:4],
                               atol=1e-4)
    num = ann.conj().T @ ann
    np.testing.assert_allclose(num, np.diag(np.arange(6.0)), atol=1e-14)


def test_reduced_density_of_twin_beam_is_thermal():
    prep = network.preparation_state(1.0, backend="fock", truncation=20)
    rho = fock.reduced_density(prep, 0)
    # tanh 1/3 pair squeeze: each arm is thermal with nbar = 1/8
    expect = (8.0 / 9.0) * (1.0 / 9.0) ** np.arange(20)
    np.testing.assert_allclose(np.diag(rho.matrix).real, expect, atol=1e-14)
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.abs(off).max() < 1e-14
    assert rho.photon_number() == pytest.approx(1.0 / 8.0, abs=1e-14)


def test_trace_distance_limits():
    d0 = fock.DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    d1 = fock.DensityMatrix(np.diag([0.0, 1.0, 0.0]).astype(complex))
    assert fock.trace_distance(d0, d1) == pytest.approx(1.0, abs=1e-14)
    assert fock.trace_distance(d0, d0) == 0.0
    with pytest.raises(InvalidArgumentError):
        fock.trace_distance(d0, fock.DensityMatrix(np.eye(2) / 2.0))


def test_density_matrix_validation():
    with pytest.raises(InvalidArgumentError):
        fock.DensityMatrix(np.eye(3))  # trace 3
    bad = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvalidArgumentError):
        fock.DensityMatrix(bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_states_refuse_non_finite_data_without_warning(bad):
    # the Hermiticity test on an inf matrix once warned on inf - inf, and a
    # NaN matrix or vector was accepted
    amps = np.zeros(4, np.complex128)
    amps[1] = bad
    with pytest.raises(InvalidArgumentError, match="not finite"):
        fock.FockVector((2, 2), amps)
    for entry in (bad, complex(0.0, bad)):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 0] = entry
        with pytest.raises(InvalidArgumentError, match="not finite"):
            fock.DensityMatrix(m)


def test_computed_densities_skip_the_eigenvalue_test(monkeypatch):
    # a Gram matrix t t^dag and a positive mixture of D rho D^dag are
    # positive by construction; only a caller's matrix is eigensolved.
    # hermgauss eigensolves its 41 x 41 Jacobi matrix, so count 16 x 16 only
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: calls.append(m.shape) or eigvalsh(m))
    spec = network.network_from_lambda(3.0)
    res = network.run_cloner(0.3 + 0.2j, spec, backend="fock", truncation=16)
    for rho in (res.clone_c, fock.reduced_density(res.state, 1)):
        mix = fock.smeared_mixture(rho)
        assert mix.matrix.dtype == np.complex128
        np.testing.assert_array_equal(mix.matrix, mix.matrix.conj().T)
    np.testing.assert_array_equal(res.clone_a.matrix,
                                  res.clone_a.matrix.conj().T)
    assert (16, 16) not in calls
    fock.DensityMatrix(res.clone_c.matrix)
    assert calls[-1] == (16, 16)


def test_merged_and_literal_paths_agree_on_clones():
    spec = network.network_from_lambda(1.0)
    full = fock.tensor(fock.vacuum_fock((20,)), fock.vacuum_fock((20, 20)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        merged = fock.apply_network_fock(spec, full, method="merged")
        literal = fock.apply_network_fock(spec, full, method="literal")
    td = fock.trace_distance(fock.reduced_density(merged, 0),
                             fock.reduced_density(literal, 0))
    assert td < 1e-4  # measured 7.5e-6 at this truncation


def test_literal_path_overflows_at_moderate_coupling():
    # stage 3 inflates the pair by e^lam before anything cancels, so the
    # literal path bursts a 16-level cutoff already at lam = 2
    spec = network.network_from_lambda(2.0)
    full = fock.tensor(fock.vacuum_fock((16,)), fock.vacuum_fock((16, 16)))
    with pytest.raises(TruncationOverflowError), warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        fock.apply_network_fock(spec, full, method="literal")


def _network_with(strength, stage):
    spec = network.network_from_lambda(1.0)
    stages = list(spec.stages)
    stages[stage] = stages[stage]._replace(strength=strength)
    return dataclasses.replace(spec, stages=tuple(stages))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["merged", "literal"])
@pytest.mark.parametrize("stage", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_network_refuses_a_non_finite_strength_before_any_work(
        monkeypatch, method, stage, bad):
    # a NaN stage 1 once dropped the merged preparation and was refused as
    # guard-band leakage; elsewhere NaN and inf were refused as a generator
    # that is not anti-Hermitian, inf after an inf * 0 RuntimeWarning
    def refuse(*args):
        raise AssertionError("evolved a state")

    monkeypatch.setattr(fock, "expm_apply", refuse)
    monkeypatch.setattr(fock, "pair_expm_apply", refuse)
    full = fock.tensor(fock.vacuum_fock((8,)), fock.vacuum_fock((8, 8)))
    with pytest.raises(InvalidArgumentError, match="not finite"):
        fock.apply_network_fock(_network_with(bad, stage), full, method)


@pytest.mark.parametrize("method", ["merged", "literal"])
def test_network_refuses_an_empty_stage_list(method):
    # the literal path once raised UnboundLocalError here
    spec = dataclasses.replace(network.network_from_lambda(1.0), stages=())
    full = fock.tensor(fock.vacuum_fock((8,)), fock.vacuum_fock((8, 8)))
    with pytest.raises(InvalidArgumentError, match="no stages"):
        fock.apply_network_fock(spec, full, method)


def test_leakage_warning_on_tight_truncation():
    spec = network.network_from_lambda(6.0)
    with pytest.warns(TruncationWarning):
        network.run_cloner(0j, spec, backend="fock", truncation=10)


def test_merged_path_checks_leakage_after_preparation():
    # mode a one level below the guard band: the preparation squeeze alone
    # pushes 60% of the state into the top levels
    d = 10
    near_edge = np.zeros(d, np.complex128)
    near_edge[d - 3] = 1.0
    state = fock.tensor(fock.vacuum_fock((d,)),
                        fock.FockVector((d,), near_edge),
                        fock.vacuum_fock((d,)))
    assert state.leakage() == 0.0
    spec = network.network_from_lambda(6.0)
    with pytest.raises(TruncationOverflowError, match="after preparation"):
        fock.apply_network_fock(spec, state)


def test_smeared_vacuum_is_half_photon_thermal():
    mix = fock.smeared_mixture(fock.vacuum_fock((20,)), "symmetric")
    expect = (2.0 / 3.0) * (1.0 / 3.0) ** np.arange(20)
    np.testing.assert_allclose(np.diag(mix.matrix).real, expect, atol=1e-8)
    probe = fock.coherent_fock(0j, 20).amplitudes
    fid = float(np.real(probe.conj() @ mix.matrix @ probe))
    assert fid == pytest.approx(2.0 / 3.0, abs=1e-7)


def test_smeared_mixture_width_variants():
    mix = fock.smeared_mixture(fock.vacuum_fock((20,)), {"sigma": 1.5})
    _, vx = mix.quadrature_moments(0.0)
    _, vy = mix.quadrature_moments(math.pi / 2.0)
    assert vx == pytest.approx(0.25 + 1.5 ** 2 / 4.0, abs=1e-4)
    assert vy == pytest.approx(0.25 + 1.0 / (4.0 * 1.5 ** 2), abs=1e-4)


def test_smeared_mixture_narrow_width_limit():
    base = fock.coherent_fock(0.4, 18)
    mix = fock.smeared_mixture(base, {"width": 0.05})
    pure = np.outer(base.amplitudes, base.amplitudes.conj())
    td = fock.trace_distance(mix, fock.DensityMatrix(pure))
    assert td < 2e-3  # measured 1.25e-3: noise width^2/4 per quadrature


def test_smeared_mixture_input_checks():
    with pytest.raises(InvalidArgumentError):
        fock.smeared_mixture(fock.vacuum_fock((10,)), "symmetric", grid=21)
    with pytest.raises(InvalidArgumentError):
        fock.smeared_mixture(fock.vacuum_fock((10,)), {"width": -1.0})
    # these once ran on to RuntimeWarnings and a LinAlgError
    for key in ("sigma", "width"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError, match="positive and"):
                fock.smeared_mixture(fock.vacuum_fock((10,)), {key: bad})
    with pytest.raises(GridTooCoarseError):
        # wide smear on a short ladder loses trace past the 1e-4 bound
        fock.smeared_mixture(fock.vacuum_fock((8,)), {"width": 3.0})


def _two_builds(xs, ys, rows, ncols):
    batch = _kernels.displacement_columns_batch
    return batch(1j * ys, rows, ncols), batch(-xs, rows, ncols)


@pytest.mark.parametrize("f_spec", ["symmetric", {"width": 0.05},
                                    {"width": 0.7}, {"width": 2.0},
                                    {"sigma": 1}, {"sigma": 1.5},
                                    {"sigma": 0.5}])
def test_smear_blocks_give_two_direct_builds_bit_for_bit(monkeypatch, f_spec):
    # D(i t) and D(-t) read off builds of D(t) give the mixture direct
    # builds give, to the last bit, with one build or two
    for dim in (8, 16, 24, 32):
        for alpha in (0.4 - 0.3j, 1 + 0.5j):
            base = fock.coherent_fock(alpha, dim)
            try:
                one = fock.smeared_mixture(base, f_spec).matrix
            except GridTooCoarseError:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(fock, "_smear_blocks", _two_builds)
                two = fock.smeared_mixture(base, f_spec).matrix
            assert np.array_equal(one, two)


@pytest.mark.parametrize("f_spec,builds", [
    ("symmetric", 1), ({"width": 0.5}, 1), ({"sigma": 1}, 1),
    ({"sigma": 1.5}, 2), ({"sigma": 0.5}, 2)])
def test_smeared_mixture_counts_its_displacement_builds(monkeypatch, f_spec,
                                                        builds):
    seen = []
    batch = _kernels.displacement_columns_batch

    def spy(zs, rows, ncols):
        seen.append(len(zs))
        return batch(zs, rows, ncols)

    monkeypatch.setattr(_kernels, "displacement_columns_batch", spy)
    fock.smeared_mixture(fock.coherent_fock(0.3, 24), f_spec)
    assert seen == [41] * builds


@pytest.mark.parametrize("f_spec", ["symmetric", {"sigma": 0.5},
                                    {"sigma": 1.5}, {"sigma": 3},
                                    {"width": 0.05}, {"width": 2.0}])
def test_real_smear_steps_give_the_complex_build_bit_for_bit(monkeypatch,
                                                             f_spec):
    # real steps build real blocks, and the second pass multiplies them in
    # real arithmetic; a build forced through complex steps gives the same
    # mixture to the last bit
    batch = _kernels.displacement_columns_batch

    def complex_batch(zs, dim, ncols):
        return batch(np.asarray(zs, dtype=np.complex128), dim, ncols)

    for dim in (8, 16, 24, 32):
        for alpha in (0.4 - 0.3j, 1 + 0.5j):
            base = fock.coherent_fock(alpha, dim)
            try:
                real = fock.smeared_mixture(base, f_spec).matrix
            except GridTooCoarseError:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "displacement_columns_batch",
                              complex_batch)
                forced = fock.smeared_mixture(base, f_spec).matrix
            assert np.array_equal(real, forced)


def _full_grid_mixture(rho, wx, wy, grid):
    """Unnormalized sum of w D(z) rho D(z)^dag over every node of the grid."""
    nodes, wts = hermgauss(grid)
    dim = rho.shape[0]
    total = np.zeros_like(rho)
    for u, w_u in zip(nodes, wts):          # one row of the grid at a time
        zs = (wx * u + 1j * wy * nodes) / math.sqrt(2.0)
        mats = _kernels.displacement_columns_batch(zs, dim, dim)
        left = ((w_u / math.pi) * wts[:, None, None] * mats) @ rho
        total += (left @ mats.conj().transpose(0, 2, 1)).sum(axis=0)
    return total


@pytest.mark.parametrize("grid", [41, 42])
@pytest.mark.parametrize("f_spec,widths", [
    ("symmetric", (1.0, 1.0)), ({"sigma": 1.5}, (1.5, 1.0 / 1.5)),
    ({"width": 0.5}, (0.5, 0.5)), ({"width": 2.0}, (2.0, 2.0)),
    ({"sigma": 2.0}, (2.0, 0.5))])
def test_smeared_mixture_matches_full_grid_sum(grid, f_spec, widths):
    # the two one-dimensional passes against the tensor-grid sum, on short
    # and long ladders; a displaced input makes every parity block and both
    # quadrature signs count, and the widest smears pin the padded ladder
    accepted = 0
    for dim in (8, 12, 16, 24, 32):
        for alpha in (0.4 - 0.3j, 0j, 1 + 0.5j):
            base = fock.coherent_fock(alpha, dim)
            rho = np.outer(base.amplitudes, base.amplitudes.conj())
            expect = _full_grid_mixture(rho, *widths, grid)
            trace = np.trace(expect).real
            if abs(trace - 1.0) > 1e-4:
                with pytest.raises(GridTooCoarseError,
                                   match=f"mixture trace {trace:.6f};"):
                    fock.smeared_mixture(base, f_spec, grid)
                continue
            got = fock.smeared_mixture(base, f_spec, grid).matrix
            assert np.abs(got - expect / trace).max() < 1e-14
            accepted += 1
    assert accepted >= 4      # measured 4 for width 2.0, 14 for width 0.5


def test_smeared_mixture_refuses_extreme_widths_cleanly():
    # a smear adding more photons on average, (wx^2 + wy^2)/4, than the ladder
    # has levels is refused before any column is built; the widest of these
    # once overflowed squaring |z|
    vac = fock.vacuum_fock((16,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for f_spec in ({"width": 30.0}, {"width": 1e3}, {"width": 1e200},
                       {"sigma": 1e200}, {"sigma": 1e-200}):
            with pytest.raises(GridTooCoarseError,
                               match="photons on average, more than the 16 "
                                     "levels of the truncation"):
                fock.smeared_mixture(vac, f_spec)


@pytest.mark.parametrize("dim", [8, 16, 32])
def test_smeared_mixture_bound_takes_only_lossy_smears(dim):
    # just inside the bound even a vacuum is built and then loses far more
    # than the 1e-4 of trace that the trace test allows
    n_add = 0.98 * dim
    sigma = math.sqrt(2.0 * n_add + math.sqrt(4.0 * n_add ** 2 - 1.0))
    for f_spec in ({"width": math.sqrt(2.0 * n_add)}, {"sigma": sigma}):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GridTooCoarseError,
                               match=r"mixture trace 0\.[0-8]"):
                fock.smeared_mixture(fock.vacuum_fock((dim,)), f_spec)


def test_smeared_mixture_grid_domain():
    vac = fock.vacuum_fock((10,))
    for bad in (41.0, "41", None, True, 40):
        with pytest.raises(InvalidArgumentError, match="grid"):
            fock.smeared_mixture(vac, "symmetric", grid=bad)
    np.testing.assert_array_equal(
        fock.smeared_mixture(vac, "symmetric", grid=np.int64(41)).matrix,
        fock.smeared_mixture(vac).matrix)
    # every mixture shares the cached nodes and weights
    for arr in fock._hermgauss(41):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_smeared_mixture_refusal_reports_full_grid_trace():
    rho = np.zeros((8, 8), np.complex128)
    rho[0, 0] = 1.0
    trace = np.trace(_full_grid_mixture(rho, 3.0, 3.0, 41)).real
    with pytest.raises(GridTooCoarseError,
                       match=f"mixture trace {trace:.6f};"):
        fock.smeared_mixture(fock.vacuum_fock((8,)), {"width": 3.0})


@pytest.mark.parametrize("grid", [41, 61])
def test_smeared_mixture_refusal_names_the_truncation(grid):
    # the lost trace is the truncation tail: a finer grid keeps 0.999876
    with pytest.raises(GridTooCoarseError,
                       match="mixture trace 0.999876;") as info:
        fock.smeared_mixture(fock.coherent_fock(0, 12), {"sigma": 1.5}, grid)
    assert "refine the grid" not in str(info.value)
    assert "raise truncation" in str(info.value)


def test_projector_form_needs_strong_coupling():
    with pytest.raises(InvalidArgumentError):
        measurement.projector_form_check(fock.coherent_fock(0.5, 10), 2.0)


@pytest.mark.parametrize("d, lam, alpha", [(9, 3.0, 0.2), (12, 6.0, 0.3j)])
def test_projector_form_against_dense_reference(d, lam, alpha):
    # d = 8 cannot run: the network output alone leaks 1.5e-2 there
    phi = fock.coherent_fock(alpha, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        got = measurement.projector_form_check(phi, lam)
        out = network.run_cloner(phi, network.network_from_lambda(lam),
                                 backend="fock", truncation=d).state
    t = out.amplitudes.reshape(d, d, d)
    rho_ca = np.einsum("ijb,klb->ijkl", t, t.conj()).reshape(d * d, d * d)
    rho_ca /= np.trace(rho_ca).real
    c2, a2 = _kron_ann((d, d), 0), _kron_ann((d, d), 1)
    rot = scipy_expm((math.pi / 4.0) * (c2.T @ a2 - c2 @ a2.T))
    w = rot[:, np.repeat(np.arange(d) == 0, d)]        # c in vacuum
    proj = w @ w.conj().T
    kern = np.kron(np.outer(phi.amplitudes, phi.amplitudes.conj()), np.eye(d))
    target = proj @ kern @ proj
    target /= np.trace(target).real
    expect = 0.5 * np.abs(np.linalg.eigvalsh(rho_ca - target)).sum()
    assert abs(got - expect) < 1e-12
