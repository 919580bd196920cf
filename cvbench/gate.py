"""Per-job correctness gate, with every tolerance and where it comes from.

``check(job, output, error)`` returns None when a job's output is correct and
a one-line reason otherwise. A job that raises fails, except where its input
is unphysical: there only a refusal passes. The gate recomputes its
references through cvclone's public API on an independent path (the
symplectic backend for Fock jobs, closed forms for symplectic jobs, direct
library calls for CLI output); it never reuses the output under test.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.integrate import trapezoid

from cvclone import gaussian, measurement, network
from cvclone.errors import DomainError, InvalidArgumentError

RIGHT = math.pi / 2.0

# name -> (tolerance, source). A documented acceptance tolerance is used
# where one covers the job's inputs; elsewhere the tolerance is the worst gap
# measured on the seed commit over the job's parameter ranges, times about
# two, rounded up.
TOLERANCES = {
    "fock_moments.d12": (1e-2, "seed worst gap 6.7e-3 (lam >= 1.5: 3.3e-3) "
                               "over |Re a|,|Im a| <= 0.5, lam in [1, 8]"),
    "fock_moments.d16": (5e-3, "seed worst gap 2.8e-3 at lam = 1, |a| = 0.71; "
                               "criterion 7 holds 1e-4 only at lam = 6, "
                               "a = 0.5"),
    "fock_moments.d20": (1e-3, "seed worst gap 5.4e-4 at lam = 1, |a| = 0.71"),
    "fock_moments.d25": (2e-4, "seed worst gap 6.7e-5 at lam = 1, |a| = 0.71"),
    "fock_moments.literal": (5e-3, "seed worst gap 1.7e-3 on the literal path "
                                   "at lam = 0.8, d = 20, |a| = 0.71"),
    "sigma_distance": (1e-3, "criterion 12, tests/test_acceptance.py"),
    "density_floor": (0.0, "a probability density is never negative"),
    "density_integral": (1e-6, "seed worst 1 - 9e-9 at |a| = 1 on +-5 grids; "
                               "CLI example grid 1 - 1.1e-7"),
    "mixture_moments": (1e-4, "tests/test_fock.py::"
                              "test_smeared_mixture_width_variants"),
    "gaussian_moments": (1e-9, "seed worst gap 1.4e-10 (clone-a Y variance "
                               "at lam = 8, closed form vs symplectic)"),
    "cli_values": (1e-12, "relative, after the CLI's 12-digit rounding"),
    "sample_sigmas": (6.0, "standard errors allowed for sample moments"),
}

# Public entry points deliberately kept out of the timed streams.
EXCLUDED_ENTRY_POINTS = {
    "cvclone povm": "crashes at cli.py on getattr(np, 'trapezoid', np.trapz) "
                    "under NumPy 2.x; its fix would read as a wall_s change, "
                    "so it is added back by a benchmark change of its own",
}

REFUSALS = (InvalidArgumentError, DomainError)

# Known defects of the program, kept in the job lists and counted as failed.
# A failure is matched to one by job kind and reason; the sigma and covariance
# jobs also carry the note from the job list, so only the inputs built to show
# the defect can match.
VERIFY_DEFECT = ("backend-equivalence fails for about 1 seed in 10 at "
                 "truncation 25: its random circuits leave the accuracy "
                 "envelope (moment gap up to 5.2e-6 against tol 1e-6)")
_KNOWN_REASONS = {
    "sigma_report": "clone trace distance gap",
    "gauss_state": "accepted a covariance below the uncertainty bound",
}

_NUMBER = re.compile(r"[-+]?\d\.\d+e[-+]\d+")


def tol(name: str) -> float:
    return TOLERANCES[name][0]


def _gap(name: str, gap: float, what: str):
    if not gap <= tol(name):        # also catches NaN
        return f"{what} gap {gap:.2e} above {name} tolerance {tol(name):.0e}"
    return None


def is_physical(cov) -> bool:
    """One-mode covariance obeys V + (i/4) Omega >= 0."""
    cov = np.asarray(cov, dtype=float)
    return bool(cov[0, 0] > 0 and np.linalg.det(cov) >= 1.0 / 16.0 - 1e-12)


def _clone_moments_fock(res):
    vals = []
    for clone in (res.clone_c, res.clone_a):
        for phase in (0.0, RIGHT):
            vals.extend(clone.quadrature_moments(phase))
    return np.array(vals)


def _clone_moments_gaussian(res):
    vals = []
    for clone in (res.clone_c, res.clone_a):
        for phase in (0.0, RIGHT):
            vals.extend(gaussian.quadrature_moments(clone, 0, phase))
    return np.array(vals)


def _gaussian_reference(alpha, lam):
    spec = network.network_from_lambda(lam)
    return network.run_cloner(alpha, spec, backend="gaussian")


def _check_fock(job, res):
    p = job.params
    name = ("fock_moments.literal" if job.kind == "fock_literal"
            else f"fock_moments.d{p['d']}")
    ref = _clone_moments_gaussian(_gaussian_reference(p["alpha"], p["lam"]))
    gap = float(np.abs(_clone_moments_fock(res) - ref).max())
    return _gap(name, gap, "clone moment")


def _check_sigma(job, out):
    angle, report = out
    if angle != math.atan(job.params["sigma"] ** 2):
        return f"matched angle {angle} != arctan(sigma^2)"
    return _gap("sigma_distance", report["clone_trace_distance"],
                "clone trace distance")


def _check_density(job, out):
    xs, vals = out
    n = job.params["n"]
    if vals.shape != (n, n) or not np.all(np.isfinite(vals)):
        return f"density grid shape {vals.shape} or non-finite values"
    low = float(vals.min())
    if low < -tol("density_floor"):
        return f"negative density {low:.2e}"
    integral = float(trapezoid(trapezoid(vals, xs, axis=1), xs))
    return _gap("density_integral", abs(integral - 1.0), "density integral")


def _check_mixture(job, mix):
    # a symmetric smear of a coherent state adds 1/4 to each quadrature
    # variance and keeps the mean
    alpha = job.params["alpha"]
    mx, vx = mix.quadrature_moments(0.0)
    my, vy = mix.quadrature_moments(RIGHT)
    gap = max(abs(mx - alpha.real), abs(my - alpha.imag),
              abs(vx - 0.5), abs(vy - 0.5))
    return _gap("mixture_moments", gap, "mixture moment")


def _check_verify(job, results):
    if len(results) != 7:
        return f"suite returned {len(results)} checks, expected 7"
    failed = [r.name for r in results if r.status == "fail"]
    return f"checks failed: {', '.join(failed)}" if failed else None


def _same(text: str, value: float) -> bool:
    printed = float(f"{value:.11e}")
    return abs(float(text) - printed) <= tol("cli_values") * abs(printed)


def _sweep_reference(lam: float, alpha: complex) -> list:
    spec = network.network_from_lambda(lam)
    res = network.run_cloner(alpha, spec, backend="gaussian")
    _, var_x = gaussian.quadrature_moments(res.clone_c, 0, 0.0)
    _, var_y = gaussian.quadrature_moments(res.clone_a, 0, RIGHT)
    return [lam, *network.gains(spec), var_x, var_y, var_x * var_y,
            gaussian.fidelity_with_coherent(res.clone_c, alpha),
            gaussian.fidelity_with_coherent(res.clone_a, alpha)]


def _check_cli_sweep(job, out):
    code, text, err = out
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    p = job.params
    lines = text.splitlines()
    lams = np.linspace(p["lam_min"], p["lam_max"], p["steps"])
    if len(lines) != len(lams) + 1:
        return f"sweep wrote {len(lines) - 1} rows, expected {len(lams)}"
    for line, lam in zip(lines[1:], lams):
        cells = line.split(",")
        ref = _sweep_reference(float(lam), p["alpha"])
        if len(cells) != len(ref) or not all(map(_same, cells, ref)):
            return f"sweep row differs from the library at lambda {lam}"
    return None


def _check_cli_clone(job, out):
    code, text, err = out
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    p = job.params
    spec = network.network_from_lambda(p["lam"])
    res = network.run_cloner(p["alpha"], spec, backend="gaussian")
    expect = {"gains:": list(network.gains(spec))}
    for label, clone in (("clone_c:", res.clone_c), ("clone_a:", res.clone_a)):
        mean_x, var_x = gaussian.quadrature_moments(clone, 0, 0.0)
        mean_y, var_y = gaussian.quadrature_moments(clone, 0, RIGHT)
        expect[label] = [mean_x, mean_y, var_x, var_y,
                         gaussian.fidelity_with_coherent(clone, p["alpha"])]
    seen = set()
    for line in text.splitlines():
        label = line.split(" ", 1)[0]
        if label in expect:
            seen.add(label)
            got = _NUMBER.findall(line)
            if len(got) != len(expect[label]) or not all(
                    map(_same, got, expect[label])):
                return f"clone output line {label} differs from the library"
    missing = set(expect) - seen
    return f"clone output lacks {sorted(missing)}" if missing else None


def _moment_gap(rep, res):
    """Largest gap between a closed-form report and a symplectic result."""
    mean_xc, var_xc = gaussian.quadrature_moments(res.clone_c, 0, 0.0)
    mean_ya, var_ya = gaussian.quadrature_moments(res.clone_a, 0, RIGHT)
    # the closed form carries the clone-a mean with the opposite sign
    gap = max(abs(mean_xc - rep.mean_xc), abs(mean_ya + rep.mean_ya),
              abs(var_xc - rep.var_xc), abs(var_ya - rep.var_ya))
    return _gap("gaussian_moments", gap, "closed-form moment")


def _check_gauss_state(job, res):
    p = job.params
    cov = np.asarray(p["cov"])
    if not is_physical(cov):
        fid = gaussian.fidelity_with_coherent(res.clone_c,
                                              complex(*p["mean"]))
        return (f"accepted a covariance below the uncertainty bound "
                f"(det {np.linalg.det(cov):.1e} < 1/16); clone fidelity "
                f"{fid:.3f}")
    mx, my = p["mean"]
    rep = measurement.expected_moments(
        p["lam"], (mx, my, cov[0, 0] + mx * mx, cov[1, 1] + my * my))
    return _moment_gap(rep, res)


def _check_expected_moments(job, rep):
    p = job.params
    mx, my, x2, y2 = p["moments"]
    cov = np.diag([x2 - mx * mx, y2 - my * my])
    state = gaussian.GaussianState(1, np.array([mx, my]), cov)
    spec = network.network_from_lambda(p["lam"])
    if rep.variance_product < 0.25 - 1e-9:
        return f"variance product {rep.variance_product} below 1/4"
    return _moment_gap(rep, network.run_cloner(state, spec,
                                               backend="gaussian"))


def _check_povm_params(job, params):
    p = job.params
    fields = [params.C, params.D, params.E, params.disc, params.prefactor,
              params.thermal_base, abs(params.delta), abs(params.xi)]
    if not all(math.isfinite(x) for x in fields):
        return "non-finite POVM parameter"
    scale = max(1.0, abs(params.C * params.D))
    norm = abs(params.delta) ** 2 * (abs(params.gamma) ** 2
                                     - abs(params.beta) ** 2)
    bad = []
    disc = params.C * params.D - params.E ** 2
    if abs(params.disc - disc) > 1e-12 * scale:
        bad.append("disc != C D - E^2")
    if abs(norm - 1.0) > 1e-9:
        bad.append(f"|delta|^2 (|gamma|^2 - |beta|^2) = {norm}")
    if not -1.0 < params.thermal_base < 1.0 or params.prefactor <= 0:
        bad.append("thermal base or prefactor out of range")
    if (params.lam, params.phi, params.theta) != (p["lam"], p["phi"],
                                                  p["theta"]):
        bad.append("angles or coupling not carried through")
    return "; ".join(bad) or None


def _check_sample(job, samples):
    p = job.params
    n = p["n"]
    if samples.shape != (n, 2) or not np.all(np.isfinite(samples)):
        return f"sample shape {samples.shape} or non-finite values"
    res = _gaussian_reference(p["alpha"], p["lam"])
    eu = np.zeros(6)
    eu[0], eu[1] = math.cos(p["phi"]), math.sin(p["phi"])
    ev = np.zeros(6)
    ev[2], ev[3] = math.cos(p["theta"]), math.sin(p["theta"])
    mean = np.array([eu @ res.state.mean, ev @ res.state.mean])
    cov = np.array([[eu @ res.state.cov @ eu, eu @ res.state.cov @ ev],
                    [ev @ res.state.cov @ eu, ev @ res.state.cov @ ev]])
    emp_mean = samples.mean(axis=0)
    centred = samples - emp_mean
    emp_cov = centred.T @ centred / n
    k = tol("sample_sigmas")
    se_mean = np.sqrt(np.diag(cov) / n)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
    if np.any(np.abs(emp_mean - mean) > k * se_mean):
        return "sample mean off by more than 6 standard errors"
    if np.any(np.abs(emp_cov - cov) > k * se_cov):
        return "sample covariance off by more than 6 standard errors"
    return None


_CHECKS = {
    "fock_merged": _check_fock,
    "fock_literal": _check_fock,
    "sigma_report": _check_sigma,
    "povm_density": _check_density,
    "mixture": _check_mixture,
    "verify": _check_verify,
    "cli_sweep": _check_cli_sweep,
    "cli_clone": _check_cli_clone,
    "gauss_state": _check_gauss_state,
    "expected_moments": _check_expected_moments,
    "povm_params": _check_povm_params,
    "sample": _check_sample,
}


def known_defect(job, reason: str):
    """The documented defect that explains a failure, or None."""
    if job.kind == "verify":
        if reason == "checks failed: backend-equivalence":
            return VERIFY_DEFECT
        return None
    expected = _KNOWN_REASONS.get(job.kind)
    if job.known_defect and expected and reason.startswith(expected):
        return job.known_defect
    return None


def check(job, output=None, error: BaseException | None = None):
    """None when the job is correct; otherwise a one-line reason."""
    if error is not None:
        if (job.kind == "gauss_state" and not is_physical(job.params["cov"])
                and isinstance(error, REFUSALS)):
            return None
        return f"raised {type(error).__name__}: {error}"
    try:
        return _CHECKS[job.kind](job, output)
    except Exception as exc:  # a malformed output must fail, not crash
        return f"output could not be checked: {type(exc).__name__}: {exc}"
