"""The three-amplifier cloning network.

The machine is a chain of two-mode interactions on modes (c, a, b): a pair
squeezer on (a, b), a pair squeezer on (b, c), then a second pair squeezer on
(a, b), with strengths tied together by one knob ``lam``. For the symmetric
preparation the first stage also absorbs the twin-beam squeeze atanh(1/3).
Increasing ``lam`` drives both clones toward the optimal 1/4-plus-1/4 added
noise of a joint quadrature measurement.

Stage strengths for symmetric preparation (sigma = 1):

    stage 1: C on (a, b), strength atanh(1/3) - lam
    stage 2: A on (b, c), strength 2 exp(-lam)
    stage 3: C on (a, b), strength lam

For sigma != 1 the preparation is not a pure pair squeeze, so stage 1 carries
only -lam and the preparation state is supplied explicitly by
``preparation_state``; clones then carry noise sigma^2/4 in X and 1/(4 sigma^2)
in Y. That preparation is the twin beam squeezed locally by ln sigma on both
modes: the symplectic backend carries its closed-form covariance, the Fock
backend applies the truncated squeezer S(ln sigma) to each mode of the twin
beam and starts every sigma, 1 included, from it with stage 1 at -lam.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import fock, gaussian
from .errors import InvalidArgumentError

# the twin-beam squeeze atanh(1/3) that stage 1 absorbs at sigma = 1
TWIN_BEAM_SQUEEZE = math.atanh(1.0 / 3.0)
LAMBDA_CAP = 12.0
SIGMA_RANGE = (0.25, 4.0)
# Fock levels per mode accepted by the CLI and the verification suite.
TRUNCATION_RANGE = (8, 32)

Stage = namedtuple("Stage", "kind modes strength")


@dataclass(frozen=True)
class CloningNetworkSpec:
    """Gate sequence of the cloner, parameterized by lam (and sigma)."""

    lam: float
    sigma: float
    stages: tuple

    @property
    def prep_absorbed(self) -> bool:
        """True when stage 1 holds the preparation squeeze (read by the
        symplectic backend, and by the Fock backend for the input phase)."""
        return self.sigma == 1.0


@dataclass(frozen=True)
class CloneResult:
    """Network output plus its two clones, the marginals of modes c and a."""

    backend: str
    state: object
    clone_c: object
    clone_a: object


def check_lambda(lam: float, name: str = "lam") -> None:
    """Refuse a coupling outside (0, LAMBDA_CAP], NaN included; ``name``
    labels the message. This and the two checks below own their domains;
    a value that is not a real number is refused with the same message."""
    try:
        inside = 0.0 < lam <= LAMBDA_CAP
    except (TypeError, ValueError):
        inside = False
    if not inside:
        raise InvalidArgumentError(f"{name} must lie in (0, {LAMBDA_CAP:g}]")


def check_sigma(sigma: float) -> None:
    """Refuse a preparation width outside SIGMA_RANGE, or not a number."""
    lo, hi = SIGMA_RANGE
    try:
        inside = lo <= sigma <= hi
    except (TypeError, ValueError):
        inside = False
    if not inside:
        raise InvalidArgumentError(f"sigma must lie in [{lo:g}, {hi:g}]")


def check_truncation(truncation: int) -> None:
    """Refuse Fock levels per mode outside TRUNCATION_RANGE or not integral."""
    lo, hi = TRUNCATION_RANGE
    if not lo <= fock._integer(truncation, "truncation") <= hi:
        raise InvalidArgumentError(f"truncation must lie in [{lo}, {hi}]")


def check_seed(seed: int) -> None:
    """Refuse a random seed that is not a non-negative integer."""
    if fock._integer(seed, "seed") < 0:
        raise InvalidArgumentError("seed must be a non-negative integer")


def network_from_lambda(lam: float, sigma: float = 1.0) -> CloningNetworkSpec:
    check_lambda(lam)
    check_sigma(sigma)
    s1 = (TWIN_BEAM_SQUEEZE - lam) if sigma == 1.0 else -lam
    stages = (Stage("C", (1, 2), s1),
              Stage("A", (2, 0), 2.0 * math.exp(-lam)),
              Stage("C", (1, 2), lam))
    return CloningNetworkSpec(float(lam), float(sigma), stages)


def gains(spec: CloningNetworkSpec):
    """Amplifier gains cosh^2 of the three stage strengths.

    For sigma = 1 these are cosh^2(lam - atanh(1/3)), cosh^2(2 e^-lam) and
    cosh^2(lam). For sigma != 1 stage 1 excludes the preparation (its strength
    is -lam), and the reported G1 reflects the stage as built.
    """
    return tuple(math.cosh(st.strength) ** 2 for st in spec.stages)


def sigma_prep_covariance(sigma: float) -> np.ndarray:
    """Closed-form covariance of the general-width preparation.

    It is the twin-beam covariance squeezed locally by ln sigma on both
    modes, so it is pure: the X-block eigenvalues are sigma^2/2 and
    sigma^2/8, the Y-block ones their reciprocals over 4, and det(4V) = 1.
    The Fock preparation's measured quadrature moments converge to this
    matrix as the truncation grows. A sigma outside SIGMA_RANGE is refused.
    """
    check_sigma(sigma)
    s2 = float(sigma) ** 2
    cov = np.zeros((4, 4))
    cov[0, 0] = cov[2, 2] = 5.0 * s2 / 16.0
    cov[1, 1] = cov[3, 3] = 5.0 / (16.0 * s2)
    cov[0, 2] = cov[2, 0] = -3.0 * s2 / 16.0
    cov[1, 3] = cov[3, 1] = 3.0 / (16.0 * s2)
    return cov


def preparation_state(sigma: float, backend: str = "gaussian",
                      truncation: int = 20):
    """Entangled two-mode preparation on (a, b).

    sigma = 1 is the twin beam with tanh parameter 1/3, exact in both
    backends. Other widths squeeze that twin beam locally by ln sigma on both
    modes: the symplectic backend takes the closed-form covariance, the Fock
    backend the amplitudes S chi S^T with S = S(ln sigma) on ``truncation``
    levels, renormalized.
    """
    check_sigma(sigma)
    if backend == "gaussian":
        # sigma = 1 reduces to the twin-beam dyadics, which the closed form
        # carries as exact machine numbers (the squeezer product is 1 ulp off)
        return gaussian.GaussianState(2, np.zeros(4),
                                      sigma_prep_covariance(sigma))
    if backend == "fock":
        truncation = fock._integer(truncation, "truncation")
        n = np.arange(truncation)
        chi = np.zeros((truncation, truncation), np.complex128)
        chi[n, n] = math.sqrt(8.0 / 9.0) * (-1.0 / 3.0) ** n
        chi /= np.linalg.norm(chi)
        if sigma != 1.0:
            squeeze = fock.squeeze_matrix(math.log(sigma), truncation)
            chi = squeeze @ chi @ squeeze.T
            chi /= np.linalg.norm(chi)
        return fock.FockVector((truncation, truncation), chi.ravel())
    raise InvalidArgumentError(f"unknown backend {backend!r}")


def _network_transform(spec: CloningNetworkSpec) -> gaussian.SymplecticTransform:
    # every stage is a pair squeezer: "A" on (b, c), "C" on (a, b)
    total = None
    for st in spec.stages:
        gate = gaussian.two_mode_squeezer(3, *st.modes, st.strength)
        total = gate if total is None else gate.compose(total)
    return total


def _charge_phases(unit: complex, dim: int) -> np.ndarray:
    """unit^Q on the (c, a, b) tensor space, Q = n_c + n_a - n_b.

    Powers come by repeated multiplication, so they are exact for
    unit = +-1j; Q runs from 1 - dim to 2 dim - 2 and negative Q indexes
    the table from its end.
    """
    n = np.arange(dim)
    charge = (n[:, None, None] + n[None, :, None] - n[None, None, :]).ravel()
    powers = np.cumprod(np.full(2 * dim - 2, unit))    # unit^1 .. unit^(2d-2)
    table = np.concatenate(([1.0], powers, powers[dim - 2::-1].conj()))
    return table[charge]


def run_cloner(input_state: Union[complex, gaussian.GaussianState,
                                  fock.FockVector],
               spec: CloningNetworkSpec, backend: str = "gaussian",
               truncation: int = 16, method: str = "merged") -> CloneResult:
    """Clone a single-mode input; returns the full state and its two clones.

    The symplectic backend takes a coherent amplitude or a single-mode
    GaussianState; the Fock backend takes a coherent amplitude or a
    single-mode FockVector. Amplitudes must be finite; each state type
    refuses non-finite data itself, where it is built. The Fock backend starts
    (a, b) in ``preparation_state`` at every sigma, leak-checked as
    "preparation", and runs stage 1 at -lam.

    A coherent Fock input alpha = |alpha| e^(i phi) at sigma = 1 runs as the
    real input |alpha|. The charge Q = n_c + n_a - n_b commutes with A, B and
    C (each gate moves photons in pairs that leave Q fixed) and the twin beam
    has n_a = n_b, so U|alpha, chi> = e^(i phi Q) U||alpha|, chi>: the real
    output is multiplied by e^(i phi Q). The phase comes from a Fock-space
    charge, not from the symplectic matrix, so the backends stay independent.
    """
    if backend == "gaussian":
        if isinstance(input_state, fock.FockVector):
            raise InvalidArgumentError(
                "gaussian backend needs a coherent amplitude or GaussianState")
        if isinstance(input_state, gaussian.GaussianState):
            if input_state.n_modes != 1:
                raise InvalidArgumentError("input must be single-mode")
            mean_c, cov_c = input_state.mean, input_state.cov
        else:
            alpha = fock._finite_amplitude(input_state)
            mean_c = np.array([alpha.real, alpha.imag])
            cov_c = np.eye(2) / 4.0
        mean = np.zeros(6)
        cov = np.eye(6) / 4.0
        mean[0:2] = mean_c
        cov[0:2, 0:2] = cov_c
        if not spec.prep_absorbed:
            prep = preparation_state(spec.sigma, "gaussian")
            mean[2:6] = prep.mean
            cov[2:6, 2:6] = prep.cov
        out = _network_transform(spec).apply(gaussian._trusted(
            gaussian.GaussianState, n_modes=3, mean=mean, cov=cov))
        return CloneResult("gaussian", out, clone_c=gaussian.reduce(out, [0]),
                           clone_a=gaussian.reduce(out, [1]))
    if backend != "fock":
        raise InvalidArgumentError(f"unknown backend {backend!r}")
    if isinstance(input_state, gaussian.GaussianState):
        raise InvalidArgumentError(
            "fock backend needs a coherent amplitude or FockVector")
    unit = 1.0
    if isinstance(input_state, fock.FockVector):
        if input_state.n_modes != 1 or input_state.dims[0] != truncation:
            raise InvalidArgumentError(
                "input FockVector must be single-mode at the run truncation")
        vec_c = input_state.normalized()
    else:
        alpha = fock._finite_amplitude(input_state)
        vec_c = fock.coherent_fock(alpha, truncation)
        if spec.prep_absorbed and alpha.imag != 0.0:
            unit = alpha / abs(alpha)
            vec_c = fock.FockVector(vec_c.dims, np.abs(vec_c.amplitudes))
    prep = preparation_state(spec.sigma, "fock", truncation=truncation)
    full = fock.tensor(vec_c, fock._leak_check(prep, "preparation"))
    stages = (spec.stages[0]._replace(strength=-spec.lam),) + spec.stages[1:]
    out = fock.apply_network_fock(replace(spec, stages=stages), full,
                                  method=method)
    if unit != 1.0:
        out = fock.FockVector(out.dims,
                              out.amplitudes * _charge_phases(unit, truncation))
    return CloneResult("fock", out, clone_c=fock.reduced_density(out, 0),
                       clone_a=fock.reduced_density(out, 1))
