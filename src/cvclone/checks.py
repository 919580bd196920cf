"""Cross-module verification suite backing the ``verify`` command.

Each check compares two independent computation paths and reports a measured
residual, so a failure message always carries numbers, not just a flag. The
algebra checks that need headroom above the truncation edge are skipped, not
failed, when the requested truncation cannot support them. Residuals are
accumulated with np.maximum, which keeps a NaN and so fails the check, where
the builtin max(worst, nan) would return worst.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels, fock, gaussian, measurement, network
from .errors import TruncationOverflowError, TruncationWarning

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


def _interior_mask(d: int) -> np.ndarray:
    """Flat mask of the (d, d, d) levels below the guard band in every mode."""
    keep = np.arange(d) < d - GUARD_BAND
    return (keep[:, None, None] & keep[None, :, None]
            & keep[None, None, :]).ravel()


# -------------------------------------------------------------- commutators

def _check_commutators(truncation: int):
    a, b, c = (fock.build_generator(kind, (truncation,) * 3)
               for kind in "ABC")
    mask = _interior_mask(truncation)
    worst = 0.0
    for left, right, expect in ((c, a, b), (c, b, a), (b, a, c)):
        resid = ((left @ right - right @ left - expect).tocsc()[:, mask])
        if resid.nnz:
            worst = float(np.maximum(worst, np.abs(resid.data).max()))
    status = "pass" if worst < 1e-10 else "fail"
    return status, f"max interior residual {worst:.2e} (tol 1e-10)"


# ------------------------------------------------------------- bch identity

def _sector_rows(lam: float, win: int, ncols: int) -> np.ndarray:
    """Window rows of exp(lam G_k) for every sector k < win, in closed form.

    G_k is the pair-squeeze chain on the basis |n + k, n>, n = 0, 1, ...:
    G[n-1, n] = sqrt(n (n + k)) = -G[n, n-1]. Returns E with
    E[k, r, c] = <r| exp(lam G_k) |c> for r < win - k and c < ncols; the
    rows r >= win - k are left zero. With t = tanh(lam) and
    x = 1 - 2 / cosh(lam)^2, for r >= c

        E[r, c] = (-1)^r t^(r-c) cosh(lam)^-(k+1)
                  sqrt(c! (r+k)! / (r! (c+k)!)) P_c^(k, r-c)(x)

    and E[r, c] = (-1)^(c-r) E[c, r] above the diagonal, so every entry is
    (-1)^r t^|r-c| cosh(lam)^-(k+1) sqrt(binom(hi+k, hi) / binom(lo+k, lo))
    P_lo^(k, |r-c|)(x) with lo, hi = min(r, c), max(r, c). The Jacobi
    polynomials come from the three-term recurrence in the degree, which is
    stable on x in (-1, 1), vectorised over (k, |r - c|).
    """
    x = 1.0 - 2.0 / math.cosh(lam) ** 2
    # below the diagonal |r - c| reaches win - 1 however few columns there are
    span = max(ncols, win)
    alpha = np.arange(win, dtype=float)[:, None]
    beta = np.arange(span, dtype=float)[None, :]
    ab = alpha + beta
    # jac[n, k, beta] = P_n^(k, beta)(x), filled for k < win - n only: the
    # rows read degree lo in sector k with lo + k < win
    jac = np.empty((win, win, span))
    jac[0] = 1.0
    if win > 1:
        jac[1, :-1] = (alpha[:-1] + 1.0) + (ab[:-1] + 2.0) * (x - 1.0) * 0.5
    for n in range(2, win):
        m = win - n
        ks, kb = alpha[:m], ab[:m]
        c = 2.0 * n + kb
        jac[n, :m] = ((c - 1.0) * (c * (c - 2.0) * x + ks ** 2 - beta ** 2)
                      * jac[n - 1, :m]
                      - 2.0 * (n + ks - 1.0) * (n + beta - 1.0) * c
                      * jac[n - 2, :m]
                      ) / (2.0 * n * (n + kb) * (c - 2.0))
    col = np.arange(ncols)
    power = math.tanh(lam) ** np.arange(span)
    level = np.arange(1.0, span)
    rows = np.zeros((win, win, ncols))
    for k in range(win):
        r = np.arange(win - k)[:, None]
        lo, hi, gap = np.minimum(r, col), np.maximum(r, col), np.abs(r - col)
        # sqrt(binom(n + k, n)) by a running product
        root = np.cumprod(np.concatenate(([1.0],
                                          np.sqrt((level + k) / level))))
        rows[k, :win - k] = (np.where(r & 1, -1.0, 1.0)
                             * math.cosh(lam) ** -(k + 1) * power[gap]
                             * (root[hi] / root[lo]) * jac[lo, k, gap])
    return rows


def _window_rows(lam: float, win: int) -> np.ndarray:
    """``_sector_rows`` on enough levels that the dropped tail is negligible.

    Squeezing spreads a window state about win * e^(2 lam) levels deep, and
    the count starts at twice that. It grows by half until the last quarter
    of every window row holds less than 1e-20 of the row's unit norm. The
    rows decay like tanh(lam)^n out there, so the tail beyond is smaller
    still, and by Cauchy-Schwarz a product of two rows over the kept levels
    misses less than 1e-20 per unit weight.

    Every entry of ``_sector_rows`` is computed elementwise along the column
    axis, so a table on fewer levels is a bit-for-bit prefix of one on more.
    So the table is built once, one growth step past the start, where the
    growth stops for every strength at truncations 18-32, and the start is
    judged on its prefix. A count past that table, which some strengths
    need below truncation 18, is built anew at that count.
    """
    ncols = int(math.ceil(2.0 * win * math.exp(2.0 * lam)))
    rows = _sector_rows(lam, win, ncols + ncols // 2)
    while True:
        if ncols > rows.shape[-1]:
            rows = _sector_rows(lam, win, ncols)
        tail = rows[..., ncols - ncols // 4:ncols]
        # a NaN stops the growth too, and the check then reports it
        if not float((tail ** 2).sum(axis=-1).max()) >= 1e-20:
            return rows[..., :ncols]
        ncols += ncols // 2


def _check_bch(truncation: int):
    """Conjugation identity behind the merged network path.

    Checks exp(s C) b exp(-s C) = cosh(s) b + sinh(s) a^dag entrywise on the
    window below the guard band. The three-mode statement follows because the
    pair squeezer commutes with the third mode. Each sector of fixed photon
    difference k is an untruncated chain, and the window rows of its
    exponential are SU(1,1) matrix elements in closed form (``_sector_rows``):
    Truax's normal-ordered product exp(-t a^dag b^dag) cosh(s)^-(n_a+n_b+1)
    exp(t ab), t = tanh s (Phys. Rev. D 31 (1985) 1988), summed as a Jacobi
    polynomial (Perelomov, Generalized Coherent States and Their
    Applications, Springer 1986). The products sum over as many levels of
    each chain as ``_window_rows`` finds the rows need, so no truncation edge
    reaches the window. It builds one table per strength at truncations
    18-32: a table on fewer levels is a bit-for-bit prefix of one on more,
    so each smaller level count is judged on that table's prefix.
    """
    win = truncation - GUARD_BAND
    worst = 0.0
    for lam in _BCH_STRENGTHS:
        rows = _window_rows(lam, win)
        ncols = rows.shape[-1]
        sqrt_m = np.sqrt(np.arange(ncols))
        # sector -k is sector k with na and nb swapped: the chain weights
        # sqrt(na nb) and the window are symmetric in the two, so the rows of
        # |k| serve both
        for k in range(1 - win, win - 1):
            ek = rows[abs(k), :win - abs(k)]
            ek2 = rows[abs(k + 1), :win - abs(k + 1)]
            target = np.zeros((ek2.shape[0], ek.shape[0]))
            # lowering b takes (na, nb) to (na, nb - 1) with amplitude
            # sqrt(nb), raising a takes it to (na + 1, nb) with sqrt(na + 1).
            # For k >= 0 the chain index is nb, so b shifts it down by one and
            # a keeps it; for k < 0 it is na, so b keeps it and a shifts it up
            if k >= 0:
                conjugated = (ek2[:, :-1] * sqrt_m[1:]) @ ek[:, 1:].T
                i = np.arange(target.shape[0])
                target[i, i + 1] = math.cosh(lam) * sqrt_m[i + 1]
                target[i, i] = math.sinh(lam) * np.sqrt(i + k + 1.0)
            else:
                conjugated = (ek2 * np.sqrt(np.arange(ncols) - k)) @ ek.T
                i = np.arange(target.shape[1])
                target[i, i] = math.cosh(lam) * np.sqrt(i - k)
                target[i + 1, i] = math.sinh(lam) * sqrt_m[i + 1]
            worst = float(np.maximum(worst,
                                     np.abs(conjugated - target).max()))
    status = "pass" if worst < 1e-8 else "fail"
    return status, f"max window residual {worst:.2e} (tol 1e-8)"


# ---------------------------------------------------------------- unitarity

def _check_unitarity(truncation: int):
    d = min(truncation, 8)
    spec = network.network_from_lambda(0.8)
    # the generators are real, so U is real and entry (i, j) of U^dag U is
    # U[:, i]^T U[:, j]: the interior block needs only the interior columns
    u = np.eye(d ** 3)[:, _interior_mask(d)]
    for st in spec.stages:
        pair, i, j = fock._network_pair(st.kind)
        u = fock.pair_expm_apply(pair, (d,) * 3, i, j, st.strength, u)
    resid = u.T @ u - np.eye(u.shape[1])
    worst = float(np.abs(resid).max())
    status = "pass" if worst < 1e-8 else "fail"
    return status, f"max |U^dag U - 1| {worst:.2e} on interior (tol 1e-8)"


# ----------------------------------------------------- backend equivalence

# Largest total two-mode squeeze of a random equivalence circuit. A beam
# splitter turns a squeezed pair into single-mode squeezing, whose photon
# tail falls off only like tanh(r)^n, so the cap sets the tail at d = 25. At
# 0.3 the moment gap over the 2000 circuits of seeds 0-199 and
# 666291129-666291328 is at most 4.8e-9; a cap of 0.75 lets about one seed
# in ten past the 1e-6 tolerance.
_SQUEEZE_CAP = 0.3


def _random_circuit(rng):
    """Random 3-mode circuit inside the validated accuracy envelope.

    The squeezes are scaled down together until their total is at most
    _SQUEEZE_CAP; the scaling draws nothing, so the seed alone fixes the
    gates and amplitudes.
    """
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
    if squeeze_total > _SQUEEZE_CAP:
        scale = _SQUEEZE_CAP / squeeze_total
        gates = [(kind, i, j, s * scale if kind == "tms" else s)
                 for kind, i, j, s in gates]
    alphas = [complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55))
              for _ in range(3)]
    return gates, alphas


def _fock_moments(amps: np.ndarray, dims: tuple):
    # the quadratures (a + a^dag) / 2 and (a - a^dag) / 2i of mode m act on
    # psi as (u + v) / 2 and -i (u - v) / 2 with u = a psi and v = a^dag psi.
    # On the amplitudes reshaped to dims, a moves level n + 1 of mode m down
    # to n with weight sqrt(n + 1), and a^dag moves level n - 1 up to n with
    # weight sqrt(n)
    t = amps.reshape(dims)
    vecs = []
    for m, d in enumerate(dims):
        root = np.sqrt(np.arange(1.0, d)).reshape((-1,) + (1,) * (t.ndim - 1))
        levels = np.moveaxis(t, m, 0)
        u, v = np.zeros_like(t), np.zeros_like(t)
        np.moveaxis(u, m, 0)[:-1] = root * levels[1:]
        np.moveaxis(v, m, 0)[1:] = root * levels[:-1]
        u, v = u.ravel(), v.ravel()
        vecs.append((u + v) * 0.5)
        vecs.append((u - v) * (-0.5j))
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        gates, alphas = _random_circuit(rng)
        amps = fock.tensor(*[fock.coherent_fock(al, d) for al in alphas])
        amps = amps.amplitudes
        total = None
        for kind, i, j, s in gates:
            if kind == "tms":
                pair = "squeezer"
                gate = gaussian.two_mode_squeezer(3, i, j, s)
            else:
                pair = "splitter"
                gate = gaussian.beam_splitter(3, i, j, s)
            total = gate if total is None else gate.compose(total)
            amps = fock.pair_expm_apply(pair, dims, i, j, s, amps)
        mean_in = np.empty(6)
        for m, al in enumerate(alphas):
            mean_in[2 * m], mean_in[2 * m + 1] = al.real, al.imag
        mean_g = total.matrix @ mean_in
        cov_g = total.matrix @ total.matrix.T * 0.25
        mean_f, cov_f = _fock_moments(amps, dims)
        gap = np.maximum(np.abs(mean_f - mean_g).max(),
                         np.abs(cov_f - cov_g).max())
        worst = float(np.maximum(worst, gap))
    status = "pass" if worst < 1e-6 else "fail"
    return status, f"max moment gap {worst:.2e} over 5 circuits (tol 1e-6)"


# ----------------------------------------------------------- weyl covariance

def _check_weyl_covariance(truncation: int, seed: int):
    lam, d = 6.0, min(truncation, 16)
    spec = network.network_from_lambda(lam)
    base = network.run_cloner(0j, spec, backend="fock", truncation=d)
    gain_amp = math.cosh(2.0 * math.exp(-lam))
    rng = np.random.default_rng(seed)
    alphas = [complex(rng.uniform(-0.49, 0.49), rng.uniform(-0.49, 0.49))
              for _ in range(5)]
    # the batch axis is elementwise, so each block is its single-point build
    disps = _kernels.displacement_columns_batch(
        np.array([gain_amp * alpha for alpha in alphas]), d, d)
    worst = 0.0
    for alpha, disp in zip(alphas, disps):
        moved = network.run_cloner(alpha, spec, backend="fock", truncation=d)
        shifted = disp @ base.clone_c.matrix @ disp.conj().T
        worst = float(np.maximum(
            worst, fock.trace_distance(moved.clone_c, shifted)))
    status = "pass" if worst < 1e-3 else "fail"
    return status, f"max displaced-clone distance {worst:.2e} (tol 1e-3)"


# ------------------------------------------------------------ clone symmetry

def _check_clone_symmetry(truncation: int):
    lam, d = 6.0, min(truncation, 16)
    spec = network.network_from_lambda(lam)
    res = network.run_cloner(0.5 + 0j, spec, backend="fock", truncation=d)
    tdist = fock.trace_distance(res.clone_c, res.clone_a)
    res_g = network.run_cloner(0.5 + 0j, spec, backend="gaussian")
    _, var_c = gaussian.quadrature_moments(res_g.clone_c, 0, 0.0)
    _, var_a = gaussian.quadrature_moments(res_g.clone_a, 0, 0.0)
    noise_c, noise_a = measurement.expected_moments(
        lam, (0.0, 0.0, 0.25, 0.25)).added_noise
    gap_c = abs(var_c - 0.25 - noise_c)
    gap_a = abs(var_a - 0.25 - noise_a)
    ok = tdist < 1e-3 and gap_c < 1e-11 and gap_a < 1e-11
    return ("pass" if ok else "fail",
            f"clone distance {tdist:.2e} (tol 1e-3), added-noise gaps "
            f"{gap_c:.2e}/{gap_a:.2e} (tol 1e-11)")


# --------------------------------------------------------- gains consistency

def _check_gains():
    """Gains read off the gates the symplectic backend runs (entry [2i, 2i] of
    a squeezer on modes (i, j) is cosh r), the printed ``network.gains`` and
    the paper's closed forms must all agree."""
    worst, bad = 0.0, None
    for lam in (0.5, 1.0, 2.0, 4.0, 8.0):
        spec = network.network_from_lambda(lam)
        got = tuple(float(gaussian.two_mode_squeezer(3, i, j, s)
                          .matrix[2 * i, 2 * i]) ** 2
                    for _, (i, j), s in spec.stages) + network.gains(spec)
        expected = (math.cosh(network.TWIN_BEAM_SQUEEZE - lam) ** 2,
                    math.cosh(2.0 * math.exp(-lam)) ** 2,
                    math.cosh(lam) ** 2)
        gap = np.abs(np.subtract(got, expected * 2)).max()
        if not gap < 1e-12 and bad is None:
            bad = (lam, got, expected)
        worst = float(np.maximum(worst, gap))
    if bad is None:
        return "pass", f"max gain deviation {worst:.2e} (tol 1e-12)"
    lam, got, expected = bad
    return "fail", (f"gain mismatch at lam={lam}: measured {got[:3]} off the "
                    f"gates, {got[3:]} printed, expected {expected}")


# -------------------------------------------------------------------- runner

def run_all(truncation: int = 25, seed: int = 1234) -> list:
    """Run every check; returns CheckResult entries in a fixed order.

    A check that overflows its truncation (TruncationOverflowError, or a
    TruncationWarning raised as an error) fails; any other exception is a
    bug, re-raised as a RuntimeError that names the check. A truncation or
    seed that is not a non-negative integer is refused before any check runs.
    """
    network.check_truncation(truncation)
    network.check_seed(seed)
    plan = [
        ("commutator-algebra", _check_commutators, (truncation,), None),
        ("bch-identity", _check_bch, (truncation,),
         "needs truncation >= 12" if truncation < 12 else None),
        ("unitarity", _check_unitarity, (truncation,), None),
        ("backend-equivalence", _check_backend_equivalence,
         (truncation, seed),
         "needs truncation >= 25" if truncation < 25 else None),
        # Below these the lam = 6 runs pass the network's own 1e-3 leakage
        # warning level: at T = 14 the weyl draw-box corners reach 1.2e-3,
        # and the clone-symmetry input 0.5 warns at T = 13.
        ("weyl-covariance", _check_weyl_covariance, (truncation, seed),
         "needs truncation >= 15" if truncation < 15 else None),
        ("clone-symmetry", _check_clone_symmetry, (truncation,),
         "needs truncation >= 14" if truncation < 14 else None),
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
        except (TruncationOverflowError, TruncationWarning) as exc:
            status = "fail"
            detail = f"raised {type(exc).__name__}: {exc}"
        except Exception as exc:
            raise RuntimeError(f"check {name} raised "
                               f"{type(exc).__name__}: {exc}") from exc
        results.append(CheckResult(name, status, detail,
                                   time.perf_counter() - start))
    return results
