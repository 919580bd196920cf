"""Cross-module verification suite backing the ``verify`` command.

Each check compares two independent computation paths and reports a measured
residual, so a failure message always carries numbers, not just a flag. The
algebra checks that need headroom above the truncation edge are skipped, not
failed, when the requested truncation cannot support them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels, fock, gaussian, measurement, network
from .errors import InvalidArgumentError
from .fock import TWIN_BEAM_SQUEEZE

# Photon levels next to the truncation edge excluded from operator assertions.
GUARD_BAND = 4

# Coupling strengths exercised by the conjugation-identity check.
_BCH_STRENGTHS = (0.3, 0.7, 1.2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    seconds: float

    @property
    def failed(self) -> bool:
        return self.status == "fail"


# -------------------------------------------------------------- commutators

def _check_commutators(truncation: int):
    dims = (truncation,) * 3
    gens = fock._generators(dims)
    a, b, c = gens["A"], gens["B"], gens["C"]
    keep = np.arange(truncation) < truncation - GUARD_BAND
    mask = (keep[:, None, None] & keep[None, :, None]
            & keep[None, None, :]).ravel()
    worst = 0.0
    for left, right, expect in ((c, a, b), (c, b, a), (b, a, c)):
        resid = ((left @ right - right @ left - expect).tocsc()[:, mask])
        if resid.nnz:
            worst = max(worst, float(np.abs(resid.data).max()))
    status = "pass" if worst < 1e-10 else "fail"
    return status, f"max interior residual {worst:.2e} (tol 1e-10)"


# ------------------------------------------------------------- bch identity

def _chain_expm(lam: float, weights: np.ndarray,
                rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of exp(lam * chain) for an antisymmetric sector chain.

    The chain is the pair-squeeze generator restricted to one sector of fixed
    photon difference: real, antisymmetric and tridiagonal, so its
    exponential is orthogonal. diag(i^m) conjugates it into -i times a real
    symmetric tridiagonal matrix T = Q diag(theta) Q^T, so the exponential
    comes from one tridiagonal eigendecomposition instead of a dense
    scaling-and-squaring run, and only the requested rows are ever formed.
    Entry (r, c) is Re(i^(c-r) (C - iS)) with C = Q cos(lam theta) Q^T and
    S = Q sin(lam theta) Q^T, which is C, S, -C or -S by (c - r) mod 4, so
    two real products replace one complex one.
    """
    from scipy.linalg import eigh_tridiagonal

    n = weights.size + 1
    if n == 1:
        return np.ones((1, 1))[rows]
    theta, q = eigh_tridiagonal(np.zeros(n), weights)
    q_rows = q[rows]
    cos_part = (q_rows * np.cos(lam * theta)) @ q.T
    sin_part = (q_rows * np.sin(lam * theta)) @ q.T
    idx = np.arange(n)
    shift = (idx[None, :] - idx[rows][:, None]) % 4
    return (np.where(shift & 1, sin_part, cos_part)
            * np.where(shift & 2, -1.0, 1.0))


def _bch_pad(win: int, lam: float) -> int:
    # squeeze matrix elements grow binomially along a sector, so the pad
    # must scale like window * e^(2 lam); calibrated so edge effects stay
    # below 1e-10 inside the window for every window size down to 8
    return int(math.ceil(win * math.exp(2.0 * lam) * 2.0)) + 5


def _check_bch(truncation: int):
    """Conjugation identity behind the merged network path.

    Checks exp(s C) b exp(-s C) = cosh(s) b + sinh(s) a^dag entrywise on the
    window below the guard band. The three-mode statement follows because the
    pair squeezer commutes with the third mode. Each sector is evolved inside
    a padded chain so the truncation edge never reaches the window.
    """
    win = truncation - GUARD_BAND
    worst = 0.0
    for lam in _BCH_STRENGTHS:
        pad = _bch_pad(win, lam)
        expms = {}

        def sector(k, _lam=lam, _pad=pad, _cache=expms):
            # window rows of the sector exponential; the residual is only
            # read on the window, so the other rows are never needed.
            # Sector -k is sector k with na and nb swapped: the chain
            # weights sqrt(na nb) and the window are symmetric in the two,
            # so each |k| is exponentiated once
            if abs(k) not in _cache:
                nb = np.arange(_pad - abs(k))
                na = nb + abs(k)
                win_rows = (na < win) & (nb < win)
                _cache[abs(k)] = (na, nb, win_rows,
                                  _chain_expm(_lam, np.sqrt(na[1:] * nb[1:]),
                                              win_rows))
            na, nb, win_rows, ek = _cache[abs(k)]
            return (na, nb, win_rows, ek) if k >= 0 else (nb, na, win_rows, ek)

        for k in range(-win, win - 1):
            na, nb, cols, ek = sector(k)
            na2, _, rows, ek2 = sector(k + 1)
            length, length2 = na.size, na2.size
            m = np.arange(length)
            # lowering b: (na, nb) -> (na, nb - 1), amplitude sqrt(nb)
            bmat = np.zeros((length2, length))
            mp = m - 1 if k >= 0 else m
            ok = (nb > 0) & (mp >= 0) & (mp < length2)
            bmat[mp[ok], m[ok]] = np.sqrt(nb[ok])
            conjugated = ek2 @ bmat @ ek.T
            target = math.cosh(lam) * bmat
            # raising a: (na, nb) -> (na + 1, nb), amplitude sqrt(na + 1)
            mp2 = na + 1 - max(k + 1, 0)
            ok2 = (mp2 >= 0) & (mp2 < length2) & (na + 1 < pad)
            target[mp2[ok2], m[ok2]] += math.sinh(lam) * np.sqrt(na[ok2] + 1.0)
            diff = np.abs(conjugated - target[np.ix_(rows, cols)])
            if diff.size:
                worst = max(worst, float(diff.max()))
    status = "pass" if worst < 1e-8 else "fail"
    return status, f"max window residual {worst:.2e} (tol 1e-8)"


# ---------------------------------------------------------------- unitarity

def _check_unitarity(truncation: int):
    d = min(truncation, 8)
    dims = (d,) * 3
    gens = fock._generators(dims)
    spec = network.network_from_lambda(0.8)
    keep = np.arange(d) < d - GUARD_BAND
    mask = (keep[:, None, None] & keep[None, :, None]
            & keep[None, None, :]).ravel()
    # entry (i, j) of U^dag U is U[:, i]^dag U[:, j], so the interior block
    # needs only the interior columns of U
    u = np.eye(d ** 3, dtype=np.complex128)[:, mask]
    for stage in spec.stages:
        u = fock.expm_apply(gens[stage.kind] * stage.strength, u)
    resid = u.conj().T @ u - np.eye(u.shape[1])
    worst = float(np.abs(resid).max())
    status = "pass" if worst < 1e-8 else "fail"
    return status, f"max |U^dag U - 1| {worst:.2e} on interior (tol 1e-8)"


# ----------------------------------------------------- backend equivalence

def _random_circuit(rng):
    """Random 3-mode circuit inside the validated accuracy envelope."""
    n_gates = int(rng.integers(1, 5))
    gates = []
    squeeze_total = 0.0
    for _ in range(n_gates):
        i, j = rng.choice(3, size=2, replace=False)
        if rng.integers(0, 2):
            gates.append(("bs", int(i), int(j), float(rng.uniform(-1.2, 1.2))))
        else:
            r = float(rng.uniform(0.1, 0.5))
            gates.append(("tms", int(i), int(j), r))
            squeeze_total += r
    if squeeze_total > 0.75:
        scale = 0.75 / squeeze_total
        gates = [(kind, i, j, s * scale if kind == "tms" else s)
                 for kind, i, j, s in gates]
    alphas = [complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
              for _ in range(3)]
    return gates, alphas


def _fock_moments(amps: np.ndarray, dims: tuple):
    ann = fock._mode_annihilations(dims)
    quads = []
    for op in ann:
        quads.append((op + op.conj().T) * 0.5)
        quads.append((op - op.conj().T) * (-0.5j))
    vecs = [q @ amps for q in quads]
    mean = np.array([float(np.real(np.vdot(amps, v))) for v in vecs])
    n = 2 * len(dims)
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            cov[i, j] = cov[j, i] = float(np.real(np.vdot(vecs[i], vecs[j])))
    return mean, cov - np.outer(mean, mean)


def _check_backend_equivalence(truncation: int, seed: int):
    d = min(truncation, 25)
    dims = (d,) * 3
    ann = fock._mode_annihilations(dims)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        gates, alphas = _random_circuit(rng)
        amps = fock.tensor(*[fock.coherent_fock(al, d) for al in alphas])
        amps = amps.amplitudes
        total = gaussian.SymplecticTransform(np.eye(6))
        for kind, i, j, s in gates:
            ai, aj = ann[i], ann[j]
            if kind == "tms":
                gen = s * (ai @ aj - ai.conj().T @ aj.conj().T)
                total = gaussian.two_mode_squeezer(3, i, j, s).compose(total)
            else:
                gen = s * (ai.conj().T @ aj - ai @ aj.conj().T)
                total = gaussian.beam_splitter(3, i, j, s).compose(total)
            amps = fock.expm_apply(gen, amps)
        mean_in = np.empty(6)
        for m, al in enumerate(alphas):
            mean_in[2 * m], mean_in[2 * m + 1] = al.real, al.imag
        mean_g = total.matrix @ mean_in
        cov_g = total.matrix @ total.matrix.T * 0.25
        mean_f, cov_f = _fock_moments(amps, dims)
        worst = max(worst, float(np.abs(mean_f - mean_g).max()),
                    float(np.abs(cov_f - cov_g).max()))
    status = "pass" if worst < 1e-6 else "fail"
    return status, f"max moment gap {worst:.2e} over 5 circuits (tol 1e-6)"


# ----------------------------------------------------------- weyl covariance

def _check_weyl_covariance(truncation: int, seed: int):
    lam, d = 6.0, min(truncation, 16)
    spec = network.network_from_lambda(lam)
    base = network.run_cloner(0j, spec, backend="fock", truncation=d)
    gain_amp = math.cosh(2.0 * math.exp(-lam))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        alpha = complex(rng.uniform(-0.49, 0.49), rng.uniform(-0.49, 0.49))
        moved = network.run_cloner(alpha, spec, backend="fock", truncation=d)
        disp = _kernels.displacement_matrix(gain_amp * alpha, d)
        shifted = disp @ base.clone_c.matrix @ disp.conj().T
        worst = max(worst, fock.trace_distance(moved.clone_c, shifted))
    status = "pass" if worst < 1e-3 else "fail"
    return status, f"max displaced-clone distance {worst:.2e} (tol 1e-3)"


# ------------------------------------------------------------ clone symmetry

def added_noise_exact(lam: float):
    """Exact single-clone added noise (clone c, clone a) for sigma = 1.

    Quadratic forms of the network's quadrature coefficient rows; both decay
    to the optimal 1/4 like e^(-2 lam).
    """
    eps = 2.0 * math.exp(-lam)
    lamp = lam - TWIN_BEAM_SQUEEZE
    noise_c = 0.5 * math.sinh(eps) ** 2 * math.cosh(lamp) ** 2
    r, p, q = measurement.clone_a_coefficient_rows(lam)
    noise_a = 0.25 * (r * r + p * p + q * q - 1.0)
    return noise_c, noise_a


def _check_clone_symmetry(truncation: int):
    lam, d = 6.0, min(truncation, 16)
    spec = network.network_from_lambda(lam)
    res = network.run_cloner(0.5 + 0j, spec, backend="fock", truncation=d)
    tdist = fock.trace_distance(res.clone_c, res.clone_a)
    res_g = network.run_cloner(0.5 + 0j, spec, backend="gaussian")
    _, var_c = gaussian.quadrature_moments(res_g.clone_c, 0, 0.0)
    _, var_a = gaussian.quadrature_moments(res_g.clone_a, 0, 0.0)
    noise_c, noise_a = added_noise_exact(lam)
    gap_c = abs(var_c - 0.25 - noise_c)
    gap_a = abs(var_a - 0.25 - noise_a)
    ok = tdist < 1e-3 and gap_c < 1e-11 and gap_a < 1e-11
    return ("pass" if ok else "fail",
            f"clone distance {tdist:.2e} (tol 1e-3), added-noise gaps "
            f"{gap_c:.2e}/{gap_a:.2e} (tol 1e-11)")


# --------------------------------------------------------- gains consistency

def _check_gains():
    worst, bad = 0.0, None
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
        got = network.gains(network.network_from_lambda(lam))
        expected = (math.cosh(TWIN_BEAM_SQUEEZE - lam) ** 2,
                    math.cosh(2.0 * math.exp(-lam)) ** 2,
                    math.cosh(lam) ** 2)
        gap = max(abs(g - e) for g, e in zip(got, expected))
        if gap > worst:
            worst, bad = gap, (lam, got, expected)
    if worst < 1e-12:
        return "pass", f"max gain deviation {worst:.2e} (tol 1e-12)"
    lam, got, expected = bad
    return "fail", (f"gain mismatch at lam={lam}: measured {got} "
                    f"expected {expected}")


# -------------------------------------------------------------------- runner

def run_all(truncation: int = 25, seed: int = 1234) -> list:
    """Run every check; returns CheckResult entries in a fixed order."""
    lo, hi = network.TRUNCATION_RANGE
    if not lo <= truncation <= hi:
        raise InvalidArgumentError(f"truncation must lie in [{lo}, {hi}]")
    plan = [
        ("commutator-algebra", _check_commutators, (truncation,), None),
        ("bch-identity", _check_bch, (truncation,),
         "needs truncation >= 12" if truncation < 12 else None),
        ("unitarity", _check_unitarity, (truncation,), None),
        ("backend-equivalence", _check_backend_equivalence,
         (truncation, seed),
         "needs truncation >= 25" if truncation < 25 else None),
        ("weyl-covariance", _check_weyl_covariance, (truncation, seed),
         "needs truncation >= 12" if truncation < 12 else None),
        ("clone-symmetry", _check_clone_symmetry, (truncation,),
         "needs truncation >= 12" if truncation < 12 else None),
        ("gains-consistency", _check_gains, (), None),
    ]
    results = []
    for name, fn, args, skip in plan:
        if skip is not None:
            results.append(CheckResult(name, "skip", skip, 0.0))
            continue
        start = time.perf_counter()
        try:
            status, detail = fn(*args)
        except Exception as exc:
            status = "fail"
            detail = f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, status, detail,
                                   time.perf_counter() - start))
    return results
