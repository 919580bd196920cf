"""Joint-measurement layer: parameter bundle, outcome densities, moments.

The central oracle is the symplectic simulation itself: at right angles the
outcome-density family must reproduce the bivariate normal of the simulated
(X on clone c, Y on clone a) pair exactly, under the sign map documented on
the module.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import trapezoid

from cvclone import _kernels, fock, gaussian, measurement, network
from cvclone.errors import DomainError, InvalidArgumentError

T0 = math.atanh(1.0 / 3.0)
RIGHT = math.pi / 2.0


def _params3():
    return measurement.povm_params(3.0, 0.0, RIGHT)


def test_parameter_bundle_frozen():
    p = _params3()
    assert p.epsilon == -2.0 * math.exp(-3.0)
    assert p.lambda_prime == 3.0 - T0
    assert p.C == pytest.approx(0.5016670166995171, rel=1e-14)
    assert p.D == pytest.approx(0.502478055663161, rel=1e-14)
    assert abs(p.E) < 1e-18  # cos(phi - theta) = 0 at right angles
    assert p.disc == pytest.approx(0.25207666714151183, rel=1e-14)
    assert abs(p.beta) == pytest.approx(1.6494566747717598e-03, rel=1e-12)
    assert abs(p.gamma) == pytest.approx(0.5008313442496869, rel=1e-13)
    assert abs(p.delta) == pytest.approx(1.9966909717026216, rel=1e-13)
    assert p.xi.real == pytest.approx(3.2934492967704662e-03, rel=1e-12)
    assert abs(p.xi.imag) < 1e-15
    assert p.thermal_base == pytest.approx(8.359547368369494e-06, rel=1e-10)
    assert p.prefactor == pytest.approx(0.31700131850601854, rel=1e-13)


def test_normalization_identity():
    # |gamma|^2 - |beta|^2 = 1/|delta|^2 by construction
    p = _params3()
    lhs = abs(p.gamma) ** 2 - abs(p.beta) ** 2
    assert lhs == pytest.approx(1.0 / abs(p.delta) ** 2, rel=1e-12)


def test_alpha_of_linear_form():
    p = _params3()
    for x, xp in ((0.3, -0.7), (-1.1, 0.2)):
        expect = (-0.5j * x
                  + (p.C * xp - p.E * x) / (2.0 * math.sqrt(p.disc)))
        assert p.alpha_of(x, xp) == expect


def test_angle_domain_validation():
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(0.0, 0.0, RIGHT)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(3.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(3.0, 0.0, 3.5)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_params(3.0, 1.0, 0.5)


def test_parameters_stay_in_domain_across_grid():
    # no discriminant or thermal-base failure anywhere in the working range
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = measurement.povm_params(lam, 0.0, frac * math.pi)
            assert -1.0 < p.thermal_base < 1.0
            assert p.disc > 0.0
            assert abs(p.gamma) > abs(p.beta)


def test_out_of_range_thermal_base_fails_loudly():
    bad = dataclasses.replace(_params3(), thermal_base=1.2)
    with pytest.raises(DomainError):
        measurement.povm_density(bad, 0.1, 0.2, fock.coherent_fock(0j, 12))


def test_right_angle_density_reproduces_simulation():
    lam, alpha = 3.0, 0.7 + 0.3j
    p = _params3()
    res = network.run_cloner(alpha, network.network_from_lambda(lam),
                             backend="gaussian")
    st = res.state
    eu = np.zeros(6)
    eu[0] = 1.0
    ev = np.zeros(6)
    ev[3] = 1.0
    mu = np.array([eu @ st.mean, ev @ st.mean])
    cov = np.array([[eu @ st.cov @ eu, eu @ st.cov @ ev],
                    [eu @ st.cov @ ev, ev @ st.cov @ ev]])
    icov = np.linalg.inv(cov)
    norm = 2.0 * math.pi * math.sqrt(np.linalg.det(cov))
    probe = fock.coherent_fock(alpha, 24)
    worst = 0.0
    for u in np.linspace(-2.5, 2.5, 9):
        for v in np.linspace(-2.5, 2.5, 9):
            d = np.array([u, v]) - mu
            expect = math.exp(-0.5 * d @ icov @ d) / norm
            got = measurement.povm_density(p, -u, -v, probe)
            worst = max(worst, abs(got - expect))
    assert worst < 1e-10  # measured 1.2e-14


def test_completeness_integral():
    p = _params3()
    probe = fock.coherent_fock(0.7 + 0.3j, 24)
    xs = np.linspace(-6.0, 6.0, 121)
    grid = measurement.povm_density_grid(p, xs, xs, probe)
    assert np.all(grid >= 0.0)
    total = float(trapezoid(trapezoid(grid, xs, axis=1), xs))
    assert 0.99 <= total <= 1.01
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.xfail(strict=True, reason="ROADMAP, complete outcome densities "
                   "at every angle: the thermal sum and the squeezed frame "
                   "stop at the truncation, so an oblique grid integrates to "
                   "1 - q^d")
def test_completeness_integral_at_an_oblique_angle():
    # q = 0.669 here, and the grid integrates to 0.998408 = 1 - q^16
    p = measurement.povm_params(3.0, 0.0, 0.2)
    xs = np.linspace(-12.0, 12.0, 161)
    grid = measurement.povm_density_grid(p, xs, xs, fock.vacuum_fock((16,)))
    total = float(trapezoid(trapezoid(grid, xs, axis=1), xs))
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("lam, dim, alpha", [(3.0, 16, 0j),
                                              (3.0, 16, 1 + 0.5j),
                                              (0.5, 8, 1 + 0.5j)])
def test_oblique_grid_keeps_all_but_the_dropped_thermal_mass(lam, dim, alpha):
    # the d-level unitary frame loses exactly q^d at theta - phi = 0.2 (up
    # to 1.8e-15 measured); a frame of exact squeezer elements on d levels
    # lost 1.2e-2 to 0.48 more here. Complete outcome densities at every
    # angle (ROADMAP) keep this bound.
    p = measurement.povm_params(lam, 0.0, 0.2)
    xs = np.linspace(-12.0, 12.0, 241)
    grid = measurement.povm_density_grid(p, xs, xs,
                                         fock.coherent_fock(alpha, dim))
    total = float(trapezoid(trapezoid(grid, xs, axis=1), xs))
    assert total >= 1.0 - p.thermal_base ** dim - 1e-12


def _displacement_element(mp, z, m, n):
    """<m|D(z)|n> from the associated Laguerre closed form, in mpmath."""
    x = abs(z) ** 2
    if m < n:
        return (-1) ** (m + n) * mp.conj(_displacement_element(mp, z, n, m))
    return (mp.sqrt(mp.factorial(n) / mp.factorial(m)) * z ** (m - n)
            * mp.exp(-x / 2) * mp.laguerre(n, m - n, x))


def test_tiny_densities_match_high_precision_reference():
    # the six smallest densities of `cvclone povm --truncation 32 --lambda 8
    # --phi 0 --theta 1.5707963 --alpha 1,0.5 --grid 81,5.0`, near 1e-29,
    # against 40 digits with the same squeezer and probe: the factor form
    # measured 1.4e-10 to 4.9e-10, the density-matrix form 2.9e-5 to 2.1e-4
    _check_tiny_densities(1.5707963)


def test_tiny_reflected_densities_match_high_precision_reference():
    # at an exact right angle the grid reads three quarters of its points
    # off reflections of the built quadrant
    _check_tiny_densities(RIGHT)


def _check_tiny_densities(theta):
    mp = pytest.importorskip("mpmath")
    p = measurement.povm_params(8.0, 0.0, theta)
    dim = 32
    probe = fock.coherent_fock(1 + 0.5j, dim)
    xs = np.linspace(-5.0, 5.0, 81)
    grid = measurement.povm_density_grid(p, xs, xs, probe)
    weights = measurement._thermal_weights(p, dim)
    s_dag = measurement._squeeze_dag(p.xi, dim)
    with mp.workdps(40):
        amps = [mp.mpc(complex(a)) for a in probe.amplitudes]
        rows = [mp.fsum(mp.conj(amps[a]) * mp.mpc(complex(s_dag[a, b]))
                        for a in range(dim)) for b in range(dim)]
        for flat in np.argsort(grid, axis=None)[:6]:
            i, j = divmod(int(flat), len(xs))
            z = complex(p.alpha_of(xs[i], xs[j]) * p.delta)
            z = mp.mpc(z.real, z.imag)
            acc = mp.fsum(
                float(w) * abs(mp.fsum(rows[m] * _displacement_element(
                    mp, z, m, n) for m in range(dim))) ** 2
                for n, w in enumerate(weights))
            expect = float(p.prefactor) * acc
            assert expect < 1e-27
            assert abs(grid[i, j] - expect) <= 1e-8 * expect


def _two_pass_mixture(rho, width, grid=41):
    """A smear of equal widths as two passes over density matrices."""
    dim = rho.shape[0]
    wide = math.ceil((math.sqrt(dim) + 1.5 + width) ** 2)
    nodes, wts = hermgauss(grid)
    steps = width * nodes / math.sqrt(2.0)
    up = _kernels.displacement_columns_batch(1j * steps, wide, dim)
    inner = np.einsum("k,kmn,np,kqp->mq", wts, up, rho, up.conj())
    down = _kernels.displacement_columns_batch(-steps, wide, dim)
    mix = np.einsum("k,knm,np,kpq->mq", wts / math.pi, down, inner,
                    down.conj())
    return mix / np.trace(mix).real


@pytest.mark.parametrize("dim,rank,width", [
    (8, 1, 0.5), (8, 2, 0.5), (8, 8, 0.5), (16, 2, 1.0), (16, 16, 1.0)])
def test_mixed_inputs_match_density_matrix_formulas(dim, rank, width):
    # rank-2 and full-rank inputs, and a pure one at d = 8, whose 24-level
    # ladder is shorter than the 41 columns of its pass-1 factor
    rng = np.random.default_rng(dim + rank)
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m *= 0.35 ** np.arange(dim)[:, None]       # keeps the smear inside d
    rho = m @ m.conj().T
    state = fock.DensityMatrix(rho / np.trace(rho).real)
    mix = fock.smeared_mixture(state, {"width": width}).matrix
    expect = _two_pass_mixture(state.matrix, width)
    assert np.abs(mix - expect).max() < 1e-13
    p = measurement.povm_params(3.0, 0.0, 1.2)
    for xs, xps in ((np.linspace(-3.0, 3.0, 13), np.linspace(-3.0, 3.0, 13)),
                    (np.linspace(-3.0, 2.0, 7), np.linspace(-1.0, 3.0, 5))):
        got = measurement.povm_density_grid(p, xs, xps, state)
        expect = _density_loop(p, xs, xps, state.matrix)
        assert np.abs(got - expect).max() < 1e-13


def test_density_symmetry_for_vacuum_input():
    p = _params3()
    xs = np.linspace(-3.0, 3.0, 11)
    g = measurement.povm_density_grid(p, xs, xs, fock.coherent_fock(0j, 20))
    np.testing.assert_allclose(g, g[::-1, ::-1], atol=1e-14)


def _density_loop(params, xs, xps, state):
    """Tr[rho F] point by point from single displacement columns.

    ``state`` is a FockVector or a density matrix as an array.
    """
    rho = state
    if isinstance(state, fock.FockVector):
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
    dim = rho.shape[0]
    weights = measurement._thermal_weights(params, dim)
    s_dag = measurement._squeeze_dag(params.xi, dim)
    out = np.empty((len(xs), len(xps)))
    for i, x in enumerate(xs):
        for j, xp in enumerate(xps):
            z = params.alpha_of(x, xp) * params.delta
            cols = _kernels.displacement_columns_batch(np.array([z]), dim,
                                                       len(weights))[0]
            u = s_dag @ cols
            out[i, j] = params.prefactor * np.einsum(
                "mn,mk,kn,n->", u.conj(), rho, u, weights).real
    return out


@pytest.mark.parametrize("xs,xps", [
    (np.linspace(-5.0, 5.0, 41), np.linspace(-5.0, 5.0, 41)),
    (np.linspace(-5.0, 5.0, 61), np.linspace(-5.0, 5.0, 61)),
    (np.linspace(-4.0, 4.0, 40), np.linspace(-3.0, 3.0, 40)),
    (np.linspace(-4.0, 5.0, 23), np.linspace(-5.0, 5.0, 17)),   # asymmetric
])
def test_density_grid_matches_point_loop(xs, xps):
    # a displaced input has parity-flipping coherences, so p(z) != p(-z)
    p = measurement.povm_params(4.0, 0.6, 0.6 + RIGHT)
    vec = fock.coherent_fock(0.5 - 0.3j, 14)
    got = measurement.povm_density_grid(p, xs, xps, vec)
    expect = _density_loop(p, xs, xps, vec)
    assert np.abs(got - expect).max() < 1e-14
    assert np.abs(got - got[::-1, ::-1]).max() > 1e-3


@pytest.mark.parametrize("xs", [
    np.array([-1.0, np.nan, 2.0]),
    np.array([-2.0, np.inf, 2.0]),
    np.array([np.nan, 0.0, np.nan]),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_grid_points_leave_the_others_exact(xs):
    # a NaN or inf must not pass the mirror check and misplace densities
    p = _params3()
    vec = fock.coherent_fock(0.4 - 0.2j, 12)
    xps = np.array([-0.5, 0.0, 0.5])
    got = measurement.povm_density_grid(p, xs, xps, vec)
    expect = _density_loop(p, xs[np.isfinite(xs)], xps, vec)
    assert np.abs(got[np.isfinite(xs)] - expect).max() < 1e-14


@pytest.mark.parametrize("xs", [
    np.array([-1.0, np.nan, 2.0]),
    np.array([-2.0, np.inf, 2.0]),
    np.array([-np.inf, 0.0, np.inf]),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_points_on_the_second_axis_leave_the_others_exact(xs):
    # at a right angle a NaN or inf must not pass any reflection check
    p = _params3()
    vec = fock.coherent_fock(0.4 - 0.2j, 12)
    xps, keep = xs, np.isfinite(xs)
    xs = np.array([-0.5, 0.0, 0.5])
    got = measurement.povm_density_grid(p, xs, xps, vec)
    expect = _density_loop(p, xs, xps[keep], vec)
    assert np.abs(got[:, keep] - expect).max() < 1e-14


def _counting_columns(monkeypatch):
    seen = []
    batch = _kernels.displacement_columns_batch

    def spy(zs, dim, ncols):
        seen.append(len(zs))
        return batch(zs, dim, ncols)

    monkeypatch.setattr(_kernels, "displacement_columns_batch", spy)
    return seen


@pytest.mark.parametrize("xs,xps,points", [
    (np.linspace(-5.0, 5.0, 41), np.linspace(-5.0, 5.0, 41), 441),
    (np.linspace(-5.0, 5.0, 40), np.linspace(-5.0, 5.0, 40), 400),
    (np.linspace(-5.0, 5.0, 41), np.linspace(-5.0, 5.0, 41) + 0.1, 861),
    (np.linspace(-5.0, 4.0, 40), np.linspace(-5.0, 5.0, 40), 800),
])
def test_symmetric_grids_build_a_quadrant_of_the_columns(monkeypatch, xs,
                                                         xps, points):
    # at an exact right angle each axis symmetric about 0 halves the
    # columns built
    seen = _counting_columns(monkeypatch)
    measurement.povm_density_grid(_params3(), xs, xps,
                                  fock.coherent_fock(0.3, 12))
    assert seen == [points]


@pytest.mark.parametrize("theta", [1.5707963, 0.2])
def test_grids_without_a_reflection_build_the_mirror_half(monkeypatch,
                                                          theta):
    # off an exact right angle only z -> -z maps the grid onto itself
    seen = _counting_columns(monkeypatch)
    xs = np.linspace(-5.0, 5.0, 41)
    measurement.povm_density_grid(measurement.povm_params(3.0, 0.0, theta),
                                  xs, xs, fock.coherent_fock(0.3, 12))
    assert seen == [841]


@pytest.mark.parametrize("phi", [0.6, 2.3])
@pytest.mark.parametrize("xs,xps,points", [
    (np.linspace(-5.0, 5.0, 41), np.linspace(-5.0, 5.0, 41), 441),
    (np.linspace(-5.0, 5.0, 40), np.linspace(-4.0, 4.0, 31), 320),
    (np.linspace(-5.0, 5.0, 41), np.linspace(-4.0, 5.0, 30), 630),
    (np.linspace(-4.0, 5.0, 23), np.linspace(-5.0, 5.0, 40), 460),
    (np.linspace(-3.0, 3.0, 7), np.linspace(-3.0, 3.0, 2), 4),
])
def test_reflected_grids_match_point_loop(monkeypatch, phi, xs, xps,
                                          points):
    # a displaced input and a delta off the real axis make every reflection
    # carry its own phase and parity
    p = measurement.povm_params(4.0, phi, phi + RIGHT)
    assert abs(p.delta.imag) > 0.1 * abs(p.delta)
    vec = fock.coherent_fock(0.5 - 0.3j, 14)
    expect = _density_loop(p, xs, xps, vec)
    seen = _counting_columns(monkeypatch)
    got = measurement.povm_density_grid(p, xs, xps, vec)
    assert seen == [points]
    # the loop's density-matrix form is itself off by up to 7e-11 relative
    # in the tail, below 1e-20, so the tail is held to the grid's maximum
    np.testing.assert_allclose(got, expect, rtol=1e-12,
                               atol=1e-14 * expect.max())


@pytest.mark.parametrize("xs,xps", [
    (np.array([]), np.linspace(-1.0, 1.0, 3)),
    (np.linspace(-1.0, 1.0, 3), np.array([])),
    (np.array([]), np.array([])),
])
def test_an_empty_axis_gives_an_empty_grid(xs, xps):
    got = measurement.povm_density_grid(_params3(), xs, xps,
                                        fock.coherent_fock(0.3, 12))
    assert got.shape == (len(xs), len(xps))


def test_density_accepts_density_matrix_input():
    p = _params3()
    vec = fock.coherent_fock(0.2, 16)
    rho = fock.DensityMatrix(np.outer(vec.amplitudes, vec.amplitudes.conj()))
    a = measurement.povm_density(p, 0.4, -0.3, vec)
    b = measurement.povm_density(p, 0.4, -0.3, rho)
    assert a == pytest.approx(b, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        measurement.povm_density(p, 0.0, 0.0, np.eye(4))


def test_expected_moments_triangle_against_simulation():
    alpha = 0.7 + 0.3j
    inp = (alpha.real, alpha.imag,
           alpha.real ** 2 + 0.25, alpha.imag ** 2 + 0.25)
    for lam in (2.0, 3.0):
        res = network.run_cloner(alpha, network.network_from_lambda(lam),
                                 backend="gaussian")
        mxc, vxc = gaussian.quadrature_moments(res.clone_c, 0, 0.0)
        mya, vya = gaussian.quadrature_moments(res.clone_a, 0, RIGHT)
        rep = measurement.expected_moments(lam, inp)
        assert rep.mean_xc == pytest.approx(mxc, abs=1e-12)
        # opposite coupling sign convention flips the clone-a first moment
        assert abs(rep.mean_ya) == pytest.approx(abs(mya), abs=1e-12)
        assert rep.mean_ya * mya < 0.0
        assert rep.var_xc == pytest.approx(vxc, abs=1e-9)
        assert rep.var_ya == pytest.approx(vya, abs=1e-9)


def test_coefficient_rows_match_literal_products():
    # same quantities as the literal hyperbolic products where those are
    # still accurate, and clean limits r -> 1, p -> -q -> 1/sqrt(2) where
    # the literal forms would have cancelled at the e^(2 lam) scale
    for lam in (0.5, 1.0, 2.0, 3.0):
        eps = 2.0 * math.exp(-lam)
        lamp = lam - T0
        r_lit = math.sinh(lam) * math.sinh(eps)
        p_lit = (math.cosh(lam) * math.cosh(lamp)
                 - math.sinh(lam) * math.cosh(eps) * math.sinh(lamp))
        q_lit = (math.cosh(lam) * math.sinh(lamp)
                 - math.sinh(lam) * math.cosh(lamp) * math.cosh(eps))
        r, p, q = measurement.clone_a_coefficient_rows(lam)
        assert r == pytest.approx(r_lit, rel=1e-12)
        assert p == pytest.approx(p_lit, rel=1e-12)
        assert q == pytest.approx(q_lit, rel=1e-12)
    r, p, q = measurement.clone_a_coefficient_rows(18.0)
    assert r == pytest.approx(1.0, abs=1e-12)
    assert p == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert q == pytest.approx(-math.sqrt(0.5), abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        measurement.clone_a_coefficient_rows(-1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_coefficient_rows_refuse_non_finite_coupling(lam):
    # "lam <= 0" let both through to a row of NaNs
    with pytest.raises(InvalidArgumentError, match="positive and finite"):
        measurement.clone_a_coefficient_rows(lam)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                 12.5])
def test_closed_forms_refuse_coupling_outside_the_network_range(lam):
    # povm_params(nan, ...) once returned a bundle of NaNs, and past
    # lam = 12 its discriminant is roundoff
    with pytest.raises(InvalidArgumentError, match="lam must lie in"):
        measurement.povm_params(lam, 0.0, RIGHT)
    with pytest.raises(InvalidArgumentError, match="lam must lie in"):
        measurement.expected_moments(lam, (0.0, 0.0, 0.25, 0.25))


def test_expected_moments_validation():
    with pytest.raises(InvalidArgumentError):
        measurement.expected_moments(0.0, (0.0, 0.0, 0.25, 0.25))
    with pytest.raises(InvalidArgumentError):
        # second moment below the squared mean
        measurement.expected_moments(2.0, (1.0, 0.0, 0.5, 0.25))
    with pytest.raises(InvalidArgumentError):
        # variance product under the uncertainty floor
        measurement.expected_moments(2.0, (0.0, 0.0, 0.1, 0.1))
    rep = measurement.expected_moments(2.0, (0.0, 0.0, 0.25, 0.25))
    assert rep.variance_product >= 0.25 - 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", range(4))
def test_expected_moments_refuses_non_finite_moments(slot, bad):
    # a NaN second moment once came back as var_xc = nan, an inf as inf
    moments = [0.0, 0.0, 0.25, 0.25]
    moments[slot] = bad
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        measurement.expected_moments(2.0, moments)


def test_sampler_is_deterministic():
    res = network.run_cloner(0.6 - 0.4j, network.network_from_lambda(3.0),
                             backend="gaussian")
    a = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 2000, 99)
    b = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 2000, 99)
    assert a.shape == (2000, 2)
    assert np.array_equal(a, b)
    c = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 2000, 100)
    assert not np.array_equal(a, c)


def test_sampler_moments_track_state():
    res = network.run_cloner(1.0 + 0j, network.network_from_lambda(4.0),
                             backend="gaussian")
    s = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 200_000, 7)
    m1, v1 = gaussian.quadrature_moments(res.clone_c, 0, 0.0)
    m2, v2 = gaussian.quadrature_moments(res.clone_a, 0, RIGHT)
    assert s[:, 0].mean() == pytest.approx(m1, abs=5.0 * math.sqrt(v1 / 2e5))
    assert s[:, 1].mean() == pytest.approx(m2, abs=5.0 * math.sqrt(v2 / 2e5))
    assert s[:, 0].var() == pytest.approx(v1, rel=2e-2)


def test_sampler_requires_gaussian_result():
    res = network.run_cloner(0j, network.network_from_lambda(2.0),
                             backend="fock", truncation=14)
    with pytest.raises(InvalidArgumentError):
        measurement.sample_joint_quadratures(res, 0.0, RIGHT, 10, 1)
    res_g = network.run_cloner(0j, network.network_from_lambda(2.0),
                               backend="gaussian")
    with pytest.raises(InvalidArgumentError):
        measurement.sample_joint_quadratures(res_g, 0.0, RIGHT, 0, 1)


def test_sampler_refuses_a_non_integral_count():
    # n = 2.5 once drew two samples
    res = network.run_cloner(0j, network.network_from_lambda(2.0),
                             backend="gaussian")
    for n in (2.5, 3.0, "3"):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            measurement.sample_joint_quadratures(res, 0.0, RIGHT, n, 1)
    with pytest.raises(InvalidArgumentError, match="at least one sample"):
        measurement.sample_joint_quadratures(res, 0.0, RIGHT, np.int64(0), 1)
    draws = measurement.sample_joint_quadratures(res, 0.0, RIGHT,
                                                 np.int64(3), 1)
    assert draws.shape == (3, 2)


def test_sampler_refuses_a_bad_seed():
    # seed -1 once raised numpy's bare ValueError
    res = network.run_cloner(0j, network.network_from_lambda(2.0),
                             backend="gaussian")
    with pytest.raises(InvalidArgumentError, match="non-negative integer"):
        measurement.sample_joint_quadratures(res, 0.0, RIGHT, 3, -1)
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        measurement.sample_joint_quadratures(res, 0.0, RIGHT, 3, 1.5)
    draws = measurement.sample_joint_quadratures(res, 0.0, RIGHT, 3,
                                                 np.int64(1))
    assert np.array_equal(
        draws, measurement.sample_joint_quadratures(res, 0.0, RIGHT, 3, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["phi", "theta"])
def test_sampler_refuses_a_non_finite_angle(slot, bad):
    # phi = nan once drew NaN samples, phi = inf raised a bare ValueError
    res = network.run_cloner(0j, network.network_from_lambda(2.0),
                             backend="gaussian")
    angles = {"phi": 0.0, "theta": RIGHT, slot: bad}
    with pytest.raises(InvalidArgumentError, match="angles must be finite"):
        measurement.sample_joint_quadratures(res, angles["phi"],
                                             angles["theta"], 3, 1)


def _husimi_excess(lam):
    # at alpha = 1 + 1j the gap is the clone-c mean gain's excess over 1
    return math.cosh(2.0 * math.exp(-lam)) - 1.0


def test_husimi_limit_agreement():
    for lam in (4.0, 8.0):
        gap = measurement.husimi_limit_check(1.0 + 1.0j, lam)
        assert gap == pytest.approx(_husimi_excess(lam), rel=1e-9)
    with pytest.raises(InvalidArgumentError):
        measurement.husimi_limit_check(0j, 2.0)


def test_husimi_limit_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("husimi_limit_check drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    gap = measurement.husimi_limit_check(1.0 + 1.0j, 8.0)
    assert gap == pytest.approx(_husimi_excess(8.0), rel=1e-9)


@pytest.mark.parametrize("lam", [4.0, 8.0])
def test_a_wrong_stage_breaks_the_husimi_gap(lam, monkeypatch):
    exact = network.network_from_lambda

    def skewed(lam, sigma=1.0):
        spec = exact(lam, sigma)
        st = spec.stages[1]
        stages = (spec.stages[0], st._replace(strength=st.strength * 1.01),
                  spec.stages[2])
        return dataclasses.replace(spec, stages=stages)

    monkeypatch.setattr(network, "network_from_lambda", skewed)
    gap = measurement.husimi_limit_check(1.0 + 1.0j, lam)
    assert gap != pytest.approx(_husimi_excess(lam), rel=1e-9)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the literal product "
                   "S3 S2 S1 cancels terms of size e^lam, so clone a's Y "
                   "variance at lam = 12 is 1.6e-7 off")
def test_husimi_limit_agreement_at_the_coupling_cap():
    # the exact excess here is 7.55e-11; the literal transform gives 1.645e-7
    gap = measurement.husimi_limit_check(1.0 + 1.0j, 12.0)
    assert gap == pytest.approx(_husimi_excess(12.0), rel=1e-9)


def test_sigma_variant_report():
    angle, rep = measurement.sigma_variant_report(1.5, 5.0)
    assert angle == math.atan(1.5 ** 2)
    ref = 1.5 ** 2 / (2.0 * (1.0 + 1.5 ** 4))
    assert rep["reference_added_noise"] == pytest.approx(ref, rel=1e-14)
    assert rep["added_noise_c"] == pytest.approx(ref, abs=1e-3)
    assert rep["added_noise_a"] == pytest.approx(ref, abs=1e-3)
    assert rep["clone_trace_distance"] < 1e-3


def test_sigma_variant_validation():
    with pytest.raises(InvalidArgumentError):
        measurement.sigma_variant_report(5.0, 4.0)
    with pytest.raises(InvalidArgumentError):
        measurement.sigma_variant_report(1.5, 7.0)
