"""Network construction, gains, preparation states, end-to-end clone runs."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from cvclone import checks, fock, gaussian, measurement, network
from cvclone.errors import InvalidArgumentError, TruncationOverflowError

T0 = math.atanh(1.0 / 3.0)


# ------------------------------------------------------------------- gains

def test_gain_closed_forms_exact():
    for lam in (1.0, 2.0, 4.0):
        spec = network.network_from_lambda(lam)
        g1, g2, g3 = network.gains(spec)
        assert g1 == math.cosh(lam - T0) ** 2
        assert g2 == math.cosh(2.0 * math.exp(-lam)) ** 2
        assert g3 == math.cosh(lam) ** 2


def test_gain_frozen_values():
    frozen = {
        1.0: (1.4912996539846377, 1.6463545114189035, 2.3810978455418157),
        2.0: (7.333926573587395, 1.0750692581967256, 14.154116418008243),
        4.0: (373.1199161115299, 1.0013424508066007, 745.739580626089),
    }
    for lam, expect in frozen.items():
        got = network.gains(network.network_from_lambda(lam))
        assert got == expect


def test_first_gain_is_unity_at_preparation_strength():
    g1, _, _ = network.gains(network.network_from_lambda(T0))
    assert g1 == 1.0


def test_stage_layout():
    spec = network.network_from_lambda(2.0)
    kinds = [st.kind for st in spec.stages]
    modes = [st.modes for st in spec.stages]
    assert kinds == ["C", "A", "C"]
    assert modes == [(1, 2), (2, 0), (1, 2)]
    assert spec.stages[0].strength == T0 - 2.0
    assert spec.stages[1].strength == 2.0 * math.exp(-2.0)
    assert spec.stages[2].strength == 2.0
    assert spec.prep_absorbed


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        network.network_from_lambda(0.0)
    with pytest.raises(InvalidArgumentError):
        network.network_from_lambda(12.5)
    with pytest.raises(InvalidArgumentError):
        network.network_from_lambda(2.0, sigma=0.1)
    with pytest.raises(InvalidArgumentError):
        network.network_from_lambda(2.0, sigma=-1.0)


# ------------------------------------------------------------- preparation

def test_symmetric_prep_photon_number():
    prep = network.preparation_state(1.0, backend="gaussian")
    photons = float(np.trace(prep.cov)) - 1.0
    assert photons == pytest.approx(0.25, abs=1e-15)
    vec = network.preparation_state(1.0, backend="fock", truncation=20)
    probs = np.abs(vec.amplitudes.reshape(20, 20)) ** 2
    n = np.arange(20)
    photons_f = float((probs * (n[:, None] + n[None, :])).sum())
    assert photons_f == pytest.approx(0.25, abs=1e-9)


def test_symmetric_prep_covariance_dyadics():
    prep = network.preparation_state(1.0, backend="gaussian")
    np.testing.assert_allclose(np.diag(prep.cov), [5 / 16] * 4, atol=1e-15)
    assert prep.cov[0, 2] == pytest.approx(-3 / 16, abs=1e-15)
    assert prep.cov[1, 3] == pytest.approx(3 / 16, abs=1e-15)


def test_symmetric_prep_fock_series():
    vec = network.preparation_state(1.0, backend="fock", truncation=20)
    chi = vec.amplitudes.reshape(20, 20)
    n = np.arange(20)
    expect = math.sqrt(8.0 / 9.0) * (-1.0 / 3.0) ** n
    expect /= np.linalg.norm(expect)
    np.testing.assert_allclose(np.diag(chi).real, expect, atol=1e-14)
    assert np.abs(chi - np.diag(np.diag(chi))).max() == 0.0


def test_general_width_prep_converges_with_truncation():
    # the locally squeezed twin beam approaches the closed covariance as the
    # truncation grows; measured 2.8e-3, 2.8e-4, 2.8e-5 at T = 18, 24, 30
    cov = network.sigma_prep_covariance(2.0)
    gaps = []
    for truncation in (18, 24, 30):
        vec = network.preparation_state(2.0, backend="fock",
                                        truncation=truncation)
        _, measured = checks._fock_moments(vec.amplitudes, vec.dims)
        gaps.append(np.abs(measured - cov).max())
    assert gaps[0] < 5e-3
    assert gaps[1] < 0.2 * gaps[0]
    assert gaps[2] < 0.2 * gaps[1]


def test_general_width_prep_matches_closed_covariance():
    cov = network.sigma_prep_covariance(1.5)
    assert np.linalg.det(4.0 * cov) == pytest.approx(1.0, abs=1e-12)
    vec = network.preparation_state(1.5, backend="fock", truncation=24)
    mean, measured = checks._fock_moments(vec.amplitudes, vec.dims)
    assert np.abs(mean).max() < 1e-12
    assert np.abs(measured - cov).max() < 1e-6  # measured 7.4e-8


@pytest.mark.parametrize("sigma", [0.0, math.nan, -1.0, 5.0])
def test_sigma_prep_covariance_refuses_widths_out_of_range(sigma):
    # sigma = 0 once raised ZeroDivisionError, and NaN gave a NaN covariance
    with pytest.raises(InvalidArgumentError,
                       match=re.escape("sigma must lie in [0.25, 4]")):
        network.sigma_prep_covariance(sigma)


def test_general_width_prep_gaussian_branch():
    prep = network.preparation_state(0.8, backend="gaussian")
    np.testing.assert_array_equal(prep.cov, network.sigma_prep_covariance(0.8))
    s2 = 0.8 ** 2
    assert prep.cov[0, 0] == 5.0 * s2 / 16.0
    assert prep.cov[1, 1] == 5.0 / (16.0 * s2)


@pytest.mark.parametrize("method", ["merged", "literal"])
@pytest.mark.parametrize("truncation", [18, 32])
@pytest.mark.parametrize("sigma", [0.25, 4.0])
def test_general_width_prep_is_leak_checked(sigma, truncation, method):
    # the prepared (a, b) state alone holds guard-band mass 0.105 at T = 18
    # and 0.019 at T = 32, so the run stops before the network
    spec = network.network_from_lambda(3.0, sigma)
    with pytest.raises(TruncationOverflowError, match="after preparation"):
        network.run_cloner(0.1 + 0j, spec, backend="fock",
                           truncation=truncation, method=method)


def test_mild_general_width_prep_passes_its_leak_check():
    # sigma = 2 at T = 18 leaks 7.4e-4, below the 1e-3 warning level
    spec = network.network_from_lambda(3.0, 2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        network.run_cloner(0.1 + 0j, spec, backend="fock", truncation=18)
    assert not [w for w in caught if "preparation" in str(w.message)]


def test_preparation_state_validation():
    with pytest.raises(InvalidArgumentError):
        network.preparation_state(-1.0)
    with pytest.raises(InvalidArgumentError):
        network.preparation_state(8.0)
    with pytest.raises(InvalidArgumentError):
        network.preparation_state(1.0, backend="tensorflow")


# -------------------------------------------------------------- clone runs

def test_clone_added_noise_matches_closed_form():
    for lam in (1.0, 2.0, 4.0, 6.0):
        spec = network.network_from_lambda(lam)
        res = network.run_cloner(0.4 + 0.1j, spec, backend="gaussian")
        noise_c, noise_a = measurement.expected_moments(
            lam, (0.0, 0.0, 0.25, 0.25)).added_noise
        for clone, noise in ((res.clone_c, noise_c), (res.clone_a, noise_a)):
            _, var_x = gaussian.quadrature_moments(clone, 0, 0.0)
            _, var_y = gaussian.quadrature_moments(clone, 0, math.pi / 2.0)
            assert var_x == pytest.approx(0.25 + noise, abs=1e-12)
            # the added noise is the same in every quadrature
            assert var_y == pytest.approx(var_x, abs=1e-12)


def test_clone_c_mean_gain():
    for lam in (2.0, 6.0):
        spec = network.network_from_lambda(lam)
        res = network.run_cloner(0.5 + 0.25j, spec, backend="gaussian")
        factor = math.cosh(2.0 * math.exp(-lam))
        assert res.clone_c.mean == pytest.approx(
            [factor * 0.5, factor * 0.25], abs=1e-13)


def test_added_noise_closed_form_large_lam_limit():
    # both closed forms approach the 1/4 floor like e^(-2 lam), with
    # leading-order prefactors 4/3 and 1/3. the regrouped coefficient rows
    # keep the tiny excess clean even where literal hyperbolic products
    # would cancel at the e^(2 lam) scale
    for lam in (6.0, 8.0, 10.0):
        noise_c, noise_a = measurement.expected_moments(
            lam, (0.0, 0.0, 0.25, 0.25)).added_noise
        assert noise_c - 0.25 == pytest.approx(
            (4.0 / 3.0) * math.exp(-2.0 * lam), rel=1e-3)
        assert noise_a - 0.25 == pytest.approx(
            (1.0 / 3.0) * math.exp(-2.0 * lam), rel=1e-3)


def test_strong_coupling_fidelities_frozen():
    spec = network.network_from_lambda(8.0)
    res = network.run_cloner(0j, spec, backend="gaussian")
    fid_c = gaussian.fidelity_with_coherent(res.clone_c, 0j)
    fid_a = gaussian.fidelity_with_coherent(res.clone_a, 0j)
    assert fid_c == pytest.approx(0.6666665332916433, abs=1e-12)
    assert fid_a == pytest.approx(0.6666666332012104, abs=1e-12)


def test_gaussian_state_input_equals_amplitude_input():
    spec = network.network_from_lambda(3.0)
    st = gaussian.displace(gaussian.vacuum_state(1), 0, 0.3 - 0.6j)
    a = network.run_cloner(st, spec, backend="gaussian")
    b = network.run_cloner(0.3 - 0.6j, spec, backend="gaussian")
    np.testing.assert_allclose(a.state.mean, b.state.mean, atol=1e-14)
    np.testing.assert_allclose(a.state.cov, b.state.cov, atol=1e-14)


def test_fock_vector_input_roundtrip():
    spec = network.network_from_lambda(2.0)
    vec = fock.coherent_fock(0.4, 14)
    a = network.run_cloner(vec, spec, backend="fock", truncation=14)
    b = network.run_cloner(0.4 + 0j, spec, backend="fock", truncation=14)
    assert fock.trace_distance(a.clone_c, b.clone_c) < 1e-13


@pytest.mark.parametrize("method, lam, d", [("merged", 3.0, 16),
                                             ("literal", 0.8, 20)])
@pytest.mark.parametrize("alpha", [0.4, 0.4j, -0.4,
                                   0.3 * complex(math.cos(2.3),
                                                 -math.sin(2.3)), 0j])
def test_fock_clone_factors_the_input_phase(alpha, method, lam, d):
    # run_cloner evolves |alpha| in real arithmetic and restores the phase
    # as e^(i phi Q); the complex tensor input evolves without that step,
    # from the same closed-form twin beam through stages 1-3 at -lam
    spec = network.network_from_lambda(lam)
    res = network.run_cloner(alpha, spec, backend="fock", truncation=d,
                             method=method)
    full = fock.tensor(fock.coherent_fock(alpha, d),
                       network.preparation_state(1.0, "fock", d))
    stripped = network.CloningNetworkSpec(
        lam, 1.0, (spec.stages[0]._replace(strength=-lam),) + spec.stages[1:])
    direct = fock.apply_network_fock(stripped, full, method=method)
    np.testing.assert_allclose(res.state.amplitudes, direct.amplitudes,
                               rtol=0, atol=1e-14)


def test_symmetric_fock_run_evolves_once(monkeypatch):
    # the twin beam comes in closed form, so only the mixed A/B factor is
    # exponentiated; a vacuum start would also run exp(atanh(1/3) C)
    calls = []
    real = fock.expm_apply

    def spy(mat, vec):
        calls.append(mat.shape)
        return real(mat, vec)

    monkeypatch.setattr(fock, "expm_apply", spy)
    network.run_cloner(0.3 - 0.2j, network.network_from_lambda(3.0),
                       backend="fock", truncation=16)
    assert len(calls) == 1


def test_literal_fock_run_takes_chain_exponentials(monkeypatch):
    # every literal stage is a single pair gate, so none reaches the
    # Chebyshev sum; each runs once through pair_expm_apply
    calls = []
    pair, chebyshev = fock.pair_expm_apply, fock.expm_apply
    monkeypatch.setattr(fock, "pair_expm_apply",
                        lambda *args: calls.append("pair") or pair(*args))
    monkeypatch.setattr(fock, "expm_apply",
                        lambda *args: calls.append("chebyshev")
                        or chebyshev(*args))
    network.run_cloner(0.3 + 0.2j, network.network_from_lambda(0.8),
                       backend="fock", truncation=20, method="literal")
    assert calls == ["pair"] * 3


def _spy_leak_labels(monkeypatch):
    labels = []
    real = fock._leak_check
    monkeypatch.setattr(fock, "_leak_check",
                        lambda vec, where: labels.append(where)
                        or real(vec, where))
    return labels


@pytest.mark.parametrize("sigma", [1.0, 1.5])
def test_fock_run_leak_checks_preparation_then_network(monkeypatch, sigma):
    labels = _spy_leak_labels(monkeypatch)
    network.run_cloner(0.3, network.network_from_lambda(3.0, sigma),
                       backend="fock", truncation=24)
    assert labels == ["preparation", "merged network"]


def test_literal_path_leak_checks_each_stage(monkeypatch):
    labels = _spy_leak_labels(monkeypatch)
    spec = network.network_from_lambda(0.5)
    full = fock.tensor(fock.coherent_fock(0.3, 28), fock.vacuum_fock((28, 28)))
    fock.apply_network_fock(spec, full, method="literal")
    assert labels == ["stage C(-0.153)", "stage A(+1.213)", "stage C(+0.500)"]


def test_merged_path_from_vacuum_leak_checks_preparation_then_network(
        monkeypatch):
    labels = _spy_leak_labels(monkeypatch)
    full = fock.tensor(fock.coherent_fock(0.3, 24), fock.vacuum_fock((24, 24)))
    fock.apply_network_fock(network.network_from_lambda(3.0), full)
    assert labels == ["preparation", "merged network"]


def test_clone_result_holds_the_state_and_two_clones():
    fields = [f.name for f in dataclasses.fields(network.CloneResult)]
    assert fields == ["backend", "state", "clone_c", "clone_a"]


@pytest.mark.parametrize("backend, module, name", [
    ("gaussian", gaussian, "reduce"), ("fock", fock, "reduced_density")])
def test_run_cloner_computes_only_the_two_clone_marginals(
        monkeypatch, backend, module, name):
    modes = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda state, keep: modes.append(keep)
                        or real(state, keep))
    for sigma in (1.0, 1.5):
        modes.clear()
        network.run_cloner(0.3 + 0.1j, network.network_from_lambda(3.0, sigma),
                           backend=backend, truncation=24)
        assert len(modes) == 2


@pytest.mark.parametrize("d", [25, 32])
@pytest.mark.parametrize("alpha", [0.5, 0.3 - 0.4j])
def test_symmetric_fock_run_matches_vacuum_start(alpha, d):
    # exp(atanh(1/3) C) on the (a, b) vacuum is the twin beam up to the
    # truncation edge; a preparation applied twice would miss by O(1)
    spec = network.network_from_lambda(3.0)
    res = network.run_cloner(alpha, spec, backend="fock", truncation=d)
    ref = fock.apply_network_fock(
        spec, fock.tensor(fock.coherent_fock(alpha, d),
                          fock.vacuum_fock((d, d))))
    np.testing.assert_allclose(res.state.amplitudes, ref.amplitudes,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("truncation", [0, 1])
def test_fock_run_refuses_truncation_below_two(truncation):
    # truncation 0 once ended in a bare IndexError
    with pytest.raises(InvalidArgumentError, match="dimension >= 2"):
        network.run_cloner(0.3, network.network_from_lambda(3.0),
                           backend="fock", truncation=truncation)


OFF_LAMBDAS = [math.nan, math.inf, -math.inf, 0.0, -1.0, 12.5]


@pytest.mark.parametrize("lam", OFF_LAMBDAS)
def test_network_refuses_coupling_outside_its_range(lam):
    with pytest.raises(InvalidArgumentError,
                       match=r"^lam must lie in \(0, 12\]$"):
        network.network_from_lambda(lam)


@pytest.mark.parametrize("sigma", [math.nan, 0.2, 4.5])
def test_network_refuses_width_outside_its_range(sigma):
    with pytest.raises(InvalidArgumentError,
                       match=r"^sigma must lie in \[0.25, 4\]$"):
        network.network_from_lambda(3.0, sigma)


@pytest.mark.parametrize("backend", ["gaussian", "fock"])
@pytest.mark.parametrize("alpha", [complex(math.nan, 0.0),
                                   complex(0.0, math.inf), -math.inf])
def test_run_cloner_refuses_non_finite_amplitude(alpha, backend):
    spec = network.network_from_lambda(3.0)
    with pytest.raises(InvalidArgumentError, match="not finite"):
        network.run_cloner(alpha, spec, backend=backend, truncation=12)


def test_run_cloner_refuses_non_finite_states():
    # a NaN amplitude once passed both leak checks and ended in LinAlgError,
    # and a NaN mean ran to a clone mean of (nan, nan)
    spec = network.network_from_lambda(3.0)
    amps = fock.coherent_fock(0.3, 12).amplitudes.copy()
    amps[3] = math.nan
    with pytest.raises(InvalidArgumentError, match="not finite"):
        network.run_cloner(fock.FockVector((12,), amps), spec,
                           backend="fock", truncation=12)
    quarter = np.eye(2) / 4.0
    for mean, cov in (([math.nan, 0.0], quarter),
                      ([0.0, math.inf], quarter),
                      ([0.0, 0.0], [[0.25, 0.0], [0.0, math.nan]]),
                      ([0.0, 0.0], [[math.inf, 0.0], [0.0, 0.25]])):
        with pytest.raises(InvalidArgumentError, match="not finite"):
            network.run_cloner(gaussian.GaussianState(1, mean, cov), spec)


def test_gaussian_run_cloner_skips_the_defect_test(monkeypatch):
    # closed-form gates and their product are symplectic by construction;
    # only a caller's matrix is tested through S Omega S^T
    calls = []
    form = gaussian.symplectic_form
    monkeypatch.setattr(gaussian, "symplectic_form",
                        lambda n: calls.append(n) or form(n))
    for sigma in (1.0, 1.5):
        spec = network.network_from_lambda(3.0, sigma)
        network.run_cloner(0.5 + 0.2j, spec)
        network.run_cloner(gaussian.vacuum_state(1), spec)
    assert calls == []
    gaussian.SymplecticTransform(np.eye(6))
    assert calls == [3]


def test_gaussian_run_cloner_checks_only_the_preparation(monkeypatch):
    # the three-mode input, the output and its marginals are computed from
    # checked input; at sigma != 1 preparation_state builds one checked state
    given = gaussian.vacuum_state(1)
    calls = []
    check = gaussian.GaussianState.__post_init__
    monkeypatch.setattr(gaussian.GaussianState, "__post_init__",
                        lambda self: calls.append(self.n_modes) or check(self))
    for sigma, expect in ((1.0, []), (1.5, [2])):
        spec = network.network_from_lambda(3.0, sigma)
        for state in (0.5 + 0.2j, given):
            calls.clear()
            res = network.run_cloner(state, spec)
            assert calls == expect
            assert res.clone_a.n_modes == 1
            np.testing.assert_array_equal(res.clone_a.cov,
                                          res.state.cov[2:4, 2:4])


def test_run_cloner_leaves_fock_finiteness_to_the_vector():
    # a NaN vector built past its constructor is refused when run_cloner
    # normalizes it, by FockVector's own message: run_cloner has no
    # finiteness test of its own
    amps = fock.coherent_fock(0.3, 12).amplitudes.copy()
    amps[3] = math.nan
    vec = gaussian._trusted(fock.FockVector, dims=(12,), amplitudes=amps)
    with pytest.raises(InvalidArgumentError,
                       match="^FockVector amplitudes are not finite$"), \
            np.errstate(invalid="ignore"):
        network.run_cloner(vec, network.network_from_lambda(3.0),
                           backend="fock", truncation=12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_fock_input_is_refused():
    # a zero vector once normalized to NaNs with a RuntimeWarning, and then
    # ended in leakage advice, a NaN density or LinAlgError; its partial
    # trace divided by a zero trace
    zero = fock.FockVector((8,), np.zeros(8))
    with pytest.raises(InvalidArgumentError, match="zero FockVector"):
        network.run_cloner(zero, network.network_from_lambda(3.0),
                           backend="fock", truncation=8)
    params = measurement.povm_params(3.0, 0.0, math.pi / 2.0)
    with pytest.raises(InvalidArgumentError, match="zero FockVector"):
        measurement.povm_density(params, 0.0, 0.0, zero)
    with pytest.raises(InvalidArgumentError, match="zero FockVector"):
        fock.smeared_mixture(zero)
    with pytest.raises(InvalidArgumentError, match="zero FockVector"):
        fock.reduced_density(fock.FockVector((2, 4), np.zeros(8)), 1)


@pytest.mark.filterwarnings("ignore:guard-band leakage")
def test_general_width_complex_input_matches_gaussian_moments():
    # sigma != 1 keeps a complex alpha on the complex path; at d = 16 the
    # sigma = 1.5 output leaks about 2e-3, over the warning level
    spec = network.network_from_lambda(4.0, sigma=1.5)
    alpha = 0.3 - 0.25j
    res_f = network.run_cloner(alpha, spec, backend="fock", truncation=16)
    res_g = network.run_cloner(alpha, spec, backend="gaussian")
    for rho, gauss in ((res_f.clone_c, res_g.clone_c),
                       (res_f.clone_a, res_g.clone_a)):
        for phase in (0.0, math.pi / 2.0):
            mean_f, var_f = rho.quadrature_moments(phase)
            mean_g, var_g = gaussian.quadrature_moments(gauss, 0, phase)
            assert abs(mean_f - mean_g) < 5e-3
            assert abs(var_f - var_g) < 5e-3


def test_run_cloner_input_validation():
    spec = network.network_from_lambda(2.0)
    with pytest.raises(InvalidArgumentError):
        network.run_cloner(fock.coherent_fock(0.1, 10), spec,
                           backend="gaussian")
    with pytest.raises(InvalidArgumentError):
        network.run_cloner(gaussian.vacuum_state(1), spec, backend="fock")
    with pytest.raises(InvalidArgumentError):
        network.run_cloner(gaussian.vacuum_state(2), spec, backend="gaussian")
    with pytest.raises(InvalidArgumentError):
        # FockVector truncation must match the run truncation
        network.run_cloner(fock.coherent_fock(0.1, 10), spec,
                           backend="fock", truncation=16)
    with pytest.raises(InvalidArgumentError):
        network.run_cloner(0j, spec, backend="heisenberg")


def test_fock_method_validation():
    full = fock.tensor(fock.vacuum_fock((8,)), fock.vacuum_fock((8, 8)))
    with pytest.raises(InvalidArgumentError):
        fock.apply_network_fock(network.network_from_lambda(1.0), full,
                                method="trotter")


_SPEC3 = network.network_from_lambda(3.0)


@pytest.mark.parametrize("build", [
    lambda: network.check_truncation(12.5),
    lambda: checks.run_all(truncation=12.5),
    lambda: fock.vacuum_fock((12.5, 3.9)),
    lambda: fock.coherent_fock(0.1, 12.5),
    lambda: fock.pair_generator("squeezer", (4.0, 4.0), 0, 1),
    lambda: network.run_cloner(0.5, _SPEC3, backend="fock", truncation=12.0),
    lambda: network.preparation_state(1.5, "fock", truncation=12.5),
], ids=["check_truncation", "run_all", "vacuum_fock", "coherent_fock",
        "pair_generator", "run_cloner", "preparation_state"])
def test_a_truncation_or_dimension_must_be_an_integer(build):
    # each once passed, truncated silently, or raised a bare numpy error
    with pytest.raises(InvalidArgumentError, match="must be an integer"):
        build()


def test_numpy_integers_still_size_a_fock_space():
    d = np.int64(12)
    network.check_truncation(d)
    assert fock.vacuum_fock((d, np.int32(3))).dims == (12, 3)
    assert fock.coherent_fock(0.1, d).dims == (12,)
    prep = network.preparation_state(1.5, "fock", truncation=d)
    assert prep.dims == (12, 12)
    res = network.run_cloner(0.5, _SPEC3, backend="fock",
                             truncation=np.int64(16))
    assert res.clone_c.dim == 16
