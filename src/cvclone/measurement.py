"""Joint quadrature measurement on the two clones.

The physical measurement records X(phi) on clone c and X(theta) on clone a.
For right angles (theta - phi = pi/2) the closed-form outcome-density operator
family implemented here reproduces the simulated joint statistics exactly
under the outcome identification

    p(u, v) = Tr[rho_in F(-u, -v)],

where (u, v) are the measured quadrature values; this identification was
validated against the truncated-Fock oracle (pointwise to 1e-14 at lam = 3)
and is the documented, supported map. At general angles the parameter bundle
and densities remain available, but they are not complete: the thermal sum
and the squeezed, displaced frame stop at the input's truncation d, so a grid
loses q^d of its mass, q = ``thermal_base``. At lam = 3, theta - phi = 0.2 and
d = 16 the vacuum grid integrates to 0.998408 = 1 - q^16; at the same lam
and a right angle q = 8e-6, and q^d is far below roundoff. No outcome
identification is claimed at general angles either: the residual relation
involves an extra area-preserving linear map with no closed form found, see
the design notes.

The squeeze operator convention, also oracle-pinned, is
S(xi) = exp((xi c^dag^2 - conj(xi) c^2)/2), built by ``fock.squeeze_matrix``.
The frame uses that d-level unitary on purpose: on a 241 x 241 grid on
[-12, 12]^2 at theta - phi = 0.2 (lam = 3, d = 16; lam = 0.5, d = 8) the
grid integrates to within 2e-15 of 1 - q^d, where d x d blocks of the exact
squeezer, which are not unitary, lose 1.2e-2 to 0.48 more.

At an exact right angle E = 0 to roundoff (about 1e-19), and the outcome
grid z = delta w(x, x') has w(-x, x') = conj w(x, x'). Reflecting an axis
symmetric about 0 then maps each displacement to a phase times its
conjugate, and ``povm_density_grid`` hands the kernel the 2-D grid so that
it builds displacement columns for one quadrant (see
``_kernels.povm_grid_values``). Angles that miss pi/2 by more than the
kernel's tolerance, such as theta - phi = 1.5707963, keep the z -> -z
mirror only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, fock, gaussian, network
from .errors import DomainError, InvalidArgumentError


@dataclass(frozen=True)
class PovmParams:
    """Closed-form parameter bundle of the finite-lam outcome operators."""

    lam: float
    phi: float
    theta: float
    epsilon: float
    lambda_prime: float
    C: float
    D: float
    E: float
    disc: float
    beta: complex
    gamma: complex
    delta: complex
    xi: complex
    thermal_base: float
    prefactor: float

    def alpha_of(self, x, x_prime):
        """Displacement argument for outcomes (x, x_prime), scalars or arrays."""
        return (-0.5j * x
                + (self.C * x_prime - self.E * x) / (2.0 * math.sqrt(self.disc)))


@dataclass(frozen=True)
class MomentReport:
    """First and second moments of the measured clone quadratures."""

    lam: float
    input_moments: tuple
    mean_xc: float
    mean_ya: float
    second_xc: float
    second_ya: float
    var_xc: float
    var_ya: float
    added_noise: tuple
    variance_product: float

    def __post_init__(self):
        if self.var_xc < 0 or self.var_ya < 0:
            raise InvalidArgumentError("negative output variance")
        if self.variance_product < 0.25 - 1e-9:
            raise InvalidArgumentError(
                f"variance product {self.variance_product} below the bound")


def povm_params(lam: float, phi: float, theta: float) -> PovmParams:
    """Evaluate every closed-form parameter; fails loudly off-domain."""
    network.check_lambda(lam)
    if not 0.0 < theta - phi < math.pi:
        raise InvalidArgumentError("need 0 < theta - phi < pi")
    eps = -2.0 * math.exp(-lam)
    lamp = lam - network.TWIN_BEAM_SQUEEZE
    sh_e, ch_e = math.sinh(eps), math.cosh(eps)
    sh_lp, ch_lp = math.sinh(lamp), math.cosh(lamp)
    sh_l, ch_l = math.sinh(lam), math.cosh(lam)
    cbig = (sh_e * sh_lp) ** 2 + 0.5 * sh_e ** 2
    dbig = ((ch_l * ch_lp - sh_l * ch_e * sh_lp) ** 2
            + 0.5 * (sh_l * sh_e) ** 2 - 0.5)
    ebig = math.cos(phi - theta) * (
        sh_e * sh_lp * (ch_l * ch_lp - sh_l * ch_e * sh_lp)
        - 0.5 * ch_e * sh_l * sh_e)
    disc = cbig * dbig - ebig ** 2
    if disc <= 0:
        raise DomainError(f"discriminant C*D - E^2 = {disc:.3e} not positive")
    root = math.sqrt(disc)
    common = 0.25 * sh_l * sh_e * np.exp(1j * theta) * cbig / root
    beta = 0.25 * ch_e * np.exp(1j * phi) * (1j + ebig / root) + common
    gamma = 0.25 * ch_e * np.exp(1j * phi) * (-1j + ebig / root) + common
    if abs(gamma) <= abs(beta):
        raise DomainError("|gamma| <= |beta|: squeeze parameter undefined")
    delta = (-((abs(gamma) ** 2 - abs(beta) ** 2) ** -0.5)
             * np.exp(-1j * np.angle(gamma)))
    xi = (math.acosh(abs(gamma * delta))
          * np.exp(1j * (np.angle(gamma) + np.angle(beta))))
    cd2 = cbig * abs(delta) ** 2
    thermal_base = (cd2 - 2.0) / (cd2 + 2.0)
    prefactor = cd2 / (4.0 * math.pi * root)
    return PovmParams(lam=float(lam), phi=float(phi), theta=float(theta),
                      epsilon=eps, lambda_prime=lamp, C=cbig, D=dbig, E=ebig,
                      disc=disc, beta=complex(beta), gamma=complex(gamma),
                      delta=complex(delta), xi=complex(xi),
                      thermal_base=thermal_base, prefactor=prefactor)


@functools.lru_cache(maxsize=64)
def _squeeze_dag(xi: complex, dim: int) -> np.ndarray:
    return fock.squeeze_matrix(xi, dim).conj().T


def _thermal_weights(params: PovmParams, dim: int) -> np.ndarray:
    q = params.thermal_base
    if not -1.0 < q < 1.0:
        raise DomainError(f"thermal base {q} outside (-1, 1)")
    if q <= 0:
        nth = 8
    else:
        nth = max(8, int(math.log(1e-14) / math.log(q)) + 1)
    nth = min(nth, dim)
    return (1.0 - q) * q ** np.arange(nth)


def povm_density(params: PovmParams, x: float, x_prime: float,
                 input_state) -> float:
    """Tr[input rho F(x, x_prime)] for one outcome pair."""
    return float(povm_density_grid(params, np.array([x]),
                                   np.array([x_prime]), input_state)[0, 0])


def povm_density_grid(params: PovmParams, xs, xps, input_state) -> np.ndarray:
    """Outcome density on the grid xs × xps; shape (len(xs), len(xps))."""
    factor = fock._factor(input_state)
    dim = factor.shape[0]
    weights = _thermal_weights(params, dim)
    s_dag = _squeeze_dag(params.xi, dim)
    xs = np.asarray(xs, dtype=float)
    xps = np.asarray(xps, dtype=float)
    gx, gp = np.meshgrid(xs, xps, indexing="ij")
    zs = params.alpha_of(gx, gp) * params.delta
    return _kernels.povm_grid_values(zs, s_dag, factor, weights,
                                     params.prefactor)


def clone_a_coefficient_rows(lam: float):
    """(R, P, Q) linking the measured clone-a quadrature to mode operators.

    Written as literal hyperbolic products these subtract terms of size
    e^(2 lam) and the tiny excess over the vacuum floor sinks into float
    roundoff past lam ~ 8.  Regrouping with
    cosh(2 e^-lam) - 1 = 2 sinh^2(e^-lam) keeps every term O(1), so the trio
    stays relatively accurate over the whole supported coupling range.
    """
    if not 0.0 < lam < math.inf:        # no coupling cap here; NaN fails too
        raise InvalidArgumentError("lam must be positive and finite")
    t0 = network.TWIN_BEAM_SQUEEZE
    sh_u = math.sinh(math.exp(-lam))
    ch_u = math.cosh(math.exp(-lam))
    r = 2.0 * math.sinh(lam) * sh_u * ch_u
    p = ch_u ** 2 * math.cosh(t0) - sh_u ** 2 * math.cosh(2.0 * lam - t0)
    q = -(sh_u ** 2 * math.sinh(2.0 * lam - t0) + ch_u ** 2 * math.sinh(t0))
    return r, p, q


def expected_moments(lam: float, input_moments) -> MomentReport:
    """Closed-form output moments of (X on clone c, Y on clone a).

    ``input_moments`` is (<X>, <Y>, <X^2>, <Y^2>) of the input mode. The
    relations carry the negative-coupling convention (epsilon = -2 e^-lam), so
    the clone-a first moment comes out sign-flipped relative to the gate-sign
    simulation; variances and added noises are convention-independent.
    """
    network.check_lambda(lam)
    mx, my, x2, y2 = moments = tuple(float(t) for t in input_moments)
    if not all(map(math.isfinite, moments)):
        raise InvalidArgumentError("input moments must be finite")
    var_x, var_y = x2 - mx * mx, y2 - my * my
    if var_x < -1e-12 or var_y < -1e-12:
        raise InvalidArgumentError("second moments below squared means")
    if var_x * var_y < 1.0 / 16.0 - 1e-9:
        raise InvalidArgumentError("input moments violate the uncertainty bound")
    eps = -2.0 * math.exp(-lam)
    lamp = lam - network.TWIN_BEAM_SQUEEZE
    sh_e, ch_e = math.sinh(eps), math.cosh(eps)
    sh_lp = math.sinh(lamp)
    r, p, q = clone_a_coefficient_rows(lam)
    mean_xc = ch_e * mx
    mean_ya = -r * my
    second_xc = ch_e ** 2 * x2 + 0.25 * sh_e ** 2 * (2.0 * sh_lp ** 2 + 1.0)
    second_ya = r * r * y2 + 0.25 * (p * p + q * q)
    var_xc = second_xc - mean_xc ** 2
    var_ya = second_ya - mean_ya ** 2
    return MomentReport(
        lam=float(lam), input_moments=(mx, my, x2, y2),
        mean_xc=mean_xc, mean_ya=mean_ya,
        second_xc=second_xc, second_ya=second_ya,
        var_xc=var_xc, var_ya=var_ya,
        added_noise=(var_xc - var_x, var_ya - var_y),
        variance_product=var_xc * var_ya)


def sample_joint_quadratures(result: network.CloneResult, phi: float,
                             theta: float, n: int, seed: int) -> np.ndarray:
    """n draws of (X(phi) on clone c, X(theta) on clone a); seeded."""
    if getattr(result, "backend", None) != "gaussian":
        raise InvalidArgumentError(
            "sampling needs a gaussian-backend result; compare Fock runs "
            "through povm_density instead")
    n = fock._integer(n, "n")
    network.check_seed(seed)
    if n < 1:
        raise InvalidArgumentError("need at least one sample")
    if not (math.isfinite(phi) and math.isfinite(theta)):
        raise InvalidArgumentError("measurement angles must be finite")
    state = result.state
    eu = np.zeros(6)
    eu[0], eu[1] = math.cos(phi), math.sin(phi)
    ev = np.zeros(6)
    ev[2], ev[3] = math.cos(theta), math.sin(theta)
    mean = np.array([eu @ state.mean, ev @ state.mean])
    cov = np.array([[eu @ state.cov @ eu, eu @ state.cov @ ev],
                    [eu @ state.cov @ ev, ev @ state.cov @ ev]])
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    return mean + rng.standard_normal((n, 2)) @ chol.T


def husimi_limit_check(alpha: complex, lam: float) -> float:
    """Max moment gap between rescaled joint outcomes and the input Husimi Q.

    In the large-lam limit the outcome pair (X on c, Y on a) distributes like
    the Husimi function of the input: mean (Re alpha, Im alpha), variance 1/2
    per axis, no correlation. Returns the largest absolute discrepancy over
    those five moments, read exactly off the symplectic backend's output, so
    the gap is deterministic (at alpha = 1 + 1j: cosh(2 e^-lam) - 1).
    """
    if lam < 4.0:
        raise InvalidArgumentError("husimi comparison needs lam >= 4")
    alpha = complex(alpha)
    out = network.run_cloner(alpha, network.network_from_lambda(lam)).state
    mean_xc, var_xc = gaussian.quadrature_moments(out, 0, 0.0)
    mean_ya, var_ya = gaussian.quadrature_moments(out, 1, math.pi / 2.0)
    return float(max(abs(mean_xc - alpha.real), abs(mean_ya - alpha.imag),
                     abs(var_xc - 0.5), abs(var_ya - 0.5),
                     abs(out.cov[0, 3])))       # cov(x_c, y_a)


def sigma_variant_report(sigma: float, lam: float):
    """Measured added noise at the sigma-matched angles.

    Returns (angle, report): angle = arctan(sigma^2); the report carries the
    added noise of X(angle) on clone c and X(-angle) on clone a for a vacuum
    input (both equal sigma^2 / (2 (1 + sigma^4)) in the large-lam limit),
    plus the trace distance between the clones; the Fock run has 18 levels.
    """
    network.check_sigma(sigma)
    if lam > 6.0:
        raise InvalidArgumentError("Fock-based preparation is capped at lam=6")
    angle = math.atan(sigma * sigma)
    spec = network.network_from_lambda(lam, sigma)
    result = network.run_cloner(0j, spec, backend="fock", truncation=18)
    _, var_c = result.clone_c.quadrature_moments(angle)
    _, var_a = result.clone_a.quadrature_moments(-angle)
    report = {
        "angle": angle,
        "added_noise_c": var_c - 0.25,
        "added_noise_a": var_a - 0.25,
        "reference_added_noise": sigma ** 2 / (2.0 * (1.0 + sigma ** 4)),
        "clone_trace_distance": fock.trace_distance(result.clone_c,
                                                    result.clone_a),
    }
    return angle, report


def projector_form_check(phi: fock.FockVector, lam: float) -> float:
    """Distance between the two-clone state and its projector limit form.

    Builds (1/2) P (|phi><phi| ⊗ I) P with P the vacuum projector conjugated
    by the balanced rotation of the clone pair, normalizes it, and returns its
    trace distance from the ancilla-traced network output.
    """
    if phi.n_modes != 1:
        raise InvalidArgumentError("phi must be single-mode")
    if lam < 3.0:
        raise InvalidArgumentError("limit form needs lam >= 3")
    d = phi.dims[0]
    out = network.run_cloner(phi, network.network_from_lambda(lam),
                             backend="fock", truncation=d).state
    t = out.amplitudes.reshape(d, d, d)
    rho_ca = np.einsum("ijb,klb->ijkl", t, t.conj()).reshape(d * d, d * d)
    rho_ca /= np.trace(rho_ca).real

    # the columns of the rotation with c in vacuum span the projector's range
    w = fock.pair_expm_apply("splitter", (d, d), 0, 1, math.pi / 4.0,
                             np.eye(d * d)[:, :d])
    proj = w @ w.T
    kern = np.kron(np.outer(phi.amplitudes, phi.amplitudes.conj()), np.eye(d))
    target = 0.5 * (proj @ kern @ proj)
    target /= np.trace(target).real
    return fock.trace_distance(rho_ca, target)
