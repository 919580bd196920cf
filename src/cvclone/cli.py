"""Command-line surface: sweeps, single clone runs, POVM tables, verify.

Everything prints or writes deterministic CSV (fixed 12-significant-digit
scientific notation), so two runs with the same configuration produce
byte-identical output. Exit codes: 0 success, 1 check failure, 2 invalid
configuration (including a truncation too small for the requested run or its
coherent input, whose message says what to raise), 3 I/O problem, 4 internal
error (an unexpected exception, reported on one stderr line instead of a
traceback; ``verify`` names the check that raised it).

Each option is declared once, in ``_OPTIONS``. Settings are its defaults
(truncation 25 for ``verify``), then a ``--config`` file of ``key = value``
lines, then the flags; ``network`` checks the lambda, sigma and truncation.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys

import numpy as np

from . import checks, fock, gaussian, measurement, network
from .errors import (DomainError, GridTooCoarseError, InvalidArgumentError,
                     TruncationOverflowError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

_CSV_HEADER = "lambda,G1,G2,G3,var_x,var_y,product,fidelity_c,fidelity_a"


def _fmt(value: float) -> str:
    return f"{value:.11e}"


# ------------------------------------------------------------ config plumbing

def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgumentError(f"alpha must be RE,IM (got {text!r})")
    try:
        alpha = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise InvalidArgumentError(f"bad alpha component: {exc}") from exc
    if not cmath.isfinite(alpha):
        raise InvalidArgumentError(f"alpha must be finite (got {text!r})")
    return alpha


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidArgumentError(f"grid must be N,XMAX (got {text!r})")
    try:
        return int(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InvalidArgumentError(f"bad grid component: {exc}") from exc


def _argument_type(parse):
    """``parse`` as an argparse type that keeps its error message.

    argparse reports a ValueError from a type as "invalid <name> value";
    an ArgumentTypeError carries its own text, still with exit code 2.
    """
    def convert(text: str):
        try:
            return parse(text)
        except InvalidArgumentError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


_ALPHA_ARG = _argument_type(_parse_complex)
_GRID_ARG = _argument_type(_parse_grid)

# config key: (attribute, parser, default); a flag sets the same attribute
_OPTIONS = {
    "lambda": ("lam", float, None),
    "lambda_min": ("lambda_min", float, None),
    "lambda_max": ("lambda_max", float, None),
    "steps": ("steps", int, 1),
    "alpha": ("alpha", _parse_complex, None),
    "sigma": ("sigma", float, 1.0),
    "backend": ("backend", str, "gaussian"),
    "truncation": ("truncation", int, 16),
    "seed": ("seed", int, 1234),
    "out": ("out", str, None),
    "phi": ("phi", float, None),
    "theta": ("theta", float, None),
    "grid": ("grid", _parse_grid, None),
}

_REQUIRED = {
    "sweep": ((("lambda_min", "lambda_max"),
               "sweep needs --lambda-min and --lambda-max"),
              (("alpha",), "sweep needs --alpha RE,IM"),
              (("out",), "sweep needs --out PATH")),
    "clone": ((("lam", "alpha"), "clone needs --lambda and --alpha"),),
    "povm": ((("lam", "phi", "theta"), "povm needs --lambda, --phi and --theta"),
             (("grid",), "povm needs --grid N,XMAX")),
}


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgumentError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _OPTIONS:
                raise InvalidArgumentError(f"{path}:{lineno}: unknown key {key!r}")
            field, parse, _ = _OPTIONS[key]
            try:
                values[field] = parse(val.strip())
            except (ValueError, InvalidArgumentError) as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Defaults, then config file, then explicit flags; then the checks."""
    cfg = argparse.Namespace(command=args.command, **{
        field: default for field, _, default in _OPTIONS.values()})
    if cfg.command == "verify":
        cfg.truncation = 25
    if args.config:
        vars(cfg).update(_load_config_file(args.config))
    for field, _, _ in _OPTIONS.values():
        flag = getattr(args, field, None)
        if flag is not None:
            setattr(cfg, field, flag)
    for fields, message in _REQUIRED.get(cfg.command, ()):
        if any(getattr(cfg, field) is None for field in fields):
            raise InvalidArgumentError(message)
    for name, lam in (("lambda_min", cfg.lambda_min),
                      ("lambda_max", cfg.lambda_max), ("lambda", cfg.lam)):
        if lam is not None:
            network.check_lambda(lam, name)
    if (cfg.lambda_min is not None and cfg.lambda_max is not None
            and cfg.lambda_min > cfg.lambda_max):
        raise InvalidArgumentError("lambda-min exceeds lambda-max")
    if cfg.steps < 1:
        raise InvalidArgumentError("steps must be at least 1")
    network.check_truncation(cfg.truncation)
    network.check_sigma(cfg.sigma)
    if cfg.backend not in ("gaussian", "fock"):
        raise InvalidArgumentError("backend must be gaussian or fock")
    if cfg.grid is not None:
        n, xmax = cfg.grid
        if n < 2:
            raise InvalidArgumentError("grid size must be at least 2")
        if not 0 < xmax < math.inf:
            raise InvalidArgumentError(
                "grid extent must be positive and finite")
    return cfg


# ------------------------------------------------------------------ commands

def _sweep_row(lam: float, alpha: complex, sigma: float) -> str:
    spec = network.network_from_lambda(lam, sigma)
    g1, g2, g3 = network.gains(spec)
    result = network.run_cloner(alpha, spec, backend="gaussian")
    _, var_x = gaussian.quadrature_moments(result.clone_c, 0, 0.0)
    _, var_y = gaussian.quadrature_moments(result.clone_a, 0, math.pi / 2.0)
    fid_c = gaussian.fidelity_with_coherent(result.clone_c, alpha)
    fid_a = gaussian.fidelity_with_coherent(result.clone_a, alpha)
    cells = (lam, g1, g2, g3, var_x, var_y, var_x * var_y, fid_c, fid_a)
    return ",".join(_fmt(v) for v in cells)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    lams = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.steps)
    rows = [_sweep_row(float(lam), cfg.alpha, cfg.sigma) for lam in lams]
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_CSV_HEADER + "\n")
        handle.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return EXIT_OK


def _fock_coherent_fidelity(state: fock.DensityMatrix, alpha: complex) -> float:
    probe = fock.coherent_fock(alpha, state.dim).amplitudes
    return float(np.real(probe.conj() @ state.matrix @ probe))


def cmd_clone(cfg: argparse.Namespace) -> int:
    spec = network.network_from_lambda(cfg.lam, cfg.sigma)
    g1, g2, g3 = network.gains(spec)
    result = network.run_cloner(cfg.alpha, spec, backend=cfg.backend,
                                truncation=cfg.truncation)
    print(f"lambda = {_fmt(cfg.lam)}  sigma = {_fmt(cfg.sigma)}  "
          f"backend = {cfg.backend}")
    print(f"gains: G1 = {_fmt(g1)}  G2 = {_fmt(g2)}  G3 = {_fmt(g3)}")
    lines = []
    for label, clone in (("clone_c", result.clone_c), ("clone_a", result.clone_a)):
        if cfg.backend == "gaussian":
            mean_x, var_x = gaussian.quadrature_moments(clone, 0, 0.0)
            mean_y, var_y = gaussian.quadrature_moments(clone, 0, math.pi / 2.0)
            fid = gaussian.fidelity_with_coherent(clone, cfg.alpha)
        else:
            mean_x, var_x = clone.quadrature_moments(0.0)
            mean_y, var_y = clone.quadrature_moments(math.pi / 2.0)
            fid = _fock_coherent_fidelity(clone, cfg.alpha)
        lines.append((label, mean_x, mean_y, var_x, var_y, fid))
        print(f"{label}: mean = ({_fmt(mean_x)}, {_fmt(mean_y)})  "
              f"var = ({_fmt(var_x)}, {_fmt(var_y)})  fidelity = {_fmt(fid)}")
    if cfg.backend == "fock":
        tdist = fock.trace_distance(result.clone_c, result.clone_a)
        print(f"clone trace distance = {_fmt(tdist)}")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("clone,mean_x,mean_y,var_x,var_y,fidelity\n")
            for label, *vals in lines:
                handle.write(label + "," + ",".join(_fmt(v) for v in vals) + "\n")
    return EXIT_OK


def cmd_povm(cfg: argparse.Namespace) -> int:
    params = measurement.povm_params(cfg.lam, cfg.phi, cfg.theta)
    alpha = cfg.alpha if cfg.alpha is not None else 0j
    probe = fock.coherent_fock(alpha, cfg.truncation)
    n, xmax = cfg.grid
    xs = np.linspace(-xmax, xmax, n)
    vals = measurement.povm_density_grid(params, xs, xs, probe)
    integral = float(np.trapezoid(np.trapezoid(vals, xs, axis=1), xs))
    out = open(cfg.out, "w", encoding="utf-8", newline="\n") if cfg.out else sys.stdout
    try:
        out.write(f"# lambda = {_fmt(cfg.lam)} phi = {_fmt(cfg.phi)} "
                  f"theta = {_fmt(cfg.theta)} alpha = {alpha}\n")
        out.write(f"# C = {_fmt(params.C)}\n# D = {_fmt(params.D)}\n"
                  f"# E = {_fmt(params.E)}\n")
        out.write(f"# |delta| = {_fmt(abs(params.delta))}\n"
                  f"# |beta| = {_fmt(abs(params.beta))}\n"
                  f"# |gamma| = {_fmt(abs(params.gamma))}\n")
        out.write(f"# xi = {_fmt(params.xi.real)}{params.xi.imag:+.11e}j\n")
        out.write(f"# thermal_base = {_fmt(params.thermal_base)}\n")
        out.write("x,x_prime,density\n")
        for i, x in enumerate(xs):
            for j, xp in enumerate(xs):
                out.write(f"{_fmt(x)},{_fmt(xp)},{_fmt(vals[i, j])}\n")
        out.write(f"# integral = {_fmt(integral)}\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    results = checks.run_all(truncation=cfg.truncation, seed=cfg.seed)
    failed = False
    for res in results:
        print(f"{res.name:<22} {res.status.upper():<5} "
              f"{res.seconds:8.2f}s  {res.detail}")
        failed = failed or res.failed
    print("verification " + ("FAILED" if failed else "passed"))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -------------------------------------------------------------------- parser

_ALPHA_HELP = ("input coherent amplitude; write a negative real part as"
               " --alpha=-0.3,0.6")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args keeps no state
    parser = argparse.ArgumentParser(
        prog="cvclone",
        description="Simulate the three-amplifier one-to-two cloning network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--truncation", type=int, default=None,
                       help="Fock levels per mode, %d..%d"
                       % network.TRUNCATION_RANGE)
        p.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser(
        "sweep", help="CSV over a lambda grid",
        description="Writes CSV columns " + _CSV_HEADER + ": amplifier gains,"
        " X variance of clone c, Y variance of clone a, their product, and"
        " the coherent-input fidelity of each clone.")
    common(p_sweep)
    p_sweep.add_argument("--lambda-min", dest="lambda_min", type=float)
    p_sweep.add_argument("--lambda-max", dest="lambda_max", type=float)
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--alpha", type=_ALPHA_ARG, metavar="RE,IM",
                         help=_ALPHA_HELP)
    p_sweep.add_argument("--sigma", type=float, default=None)
    p_sweep.add_argument("--out", help="output CSV path")

    p_clone = sub.add_parser("clone", help="single cloning run summary")
    common(p_clone)
    p_clone.add_argument("--lambda", dest="lam", type=float)
    p_clone.add_argument("--alpha", type=_ALPHA_ARG, metavar="RE,IM",
                         help=_ALPHA_HELP)
    p_clone.add_argument("--sigma", type=float, default=None)
    p_clone.add_argument("--backend", choices=("gaussian", "fock"))
    p_clone.add_argument("--out", help="optional CSV path")

    p_povm = sub.add_parser(
        "povm", help="outcome-density table",
        description="Emits the parameter header (C, D, E, |delta|, |beta|,"
        " |gamma|, xi) and CSV columns x,x_prime,density followed by a"
        " trailing integral comment.")
    common(p_povm)
    p_povm.add_argument("--lambda", dest="lam", type=float)
    p_povm.add_argument("--phi", type=float)
    p_povm.add_argument("--theta", type=float)
    p_povm.add_argument("--grid", type=_GRID_ARG, metavar="N,XMAX")
    p_povm.add_argument("--alpha", type=_ALPHA_ARG, metavar="RE,IM",
                        help=_ALPHA_HELP + " (default 0,0)")
    p_povm.add_argument("--out", help="optional output path (default stdout)")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    common(p_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    dispatch = {"sweep": cmd_sweep, "clone": cmd_clone,
                "povm": cmd_povm, "verify": cmd_verify}
    try:
        cfg = _resolve_config(args)
        return dispatch[cfg.command](cfg)
    except (InvalidArgumentError, DomainError, TruncationOverflowError,
            GridTooCoarseError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
