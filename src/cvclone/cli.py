"""Command-line surface: sweeps, single clone runs, POVM tables, verify.

Everything prints or writes deterministic CSV (fixed 12-significant-digit
scientific notation), so two runs with the same configuration produce
byte-identical output. Exit codes: 0 success, 1 check failure, 2 invalid
configuration (including a truncation too small for the requested run or its
coherent input, whose message says what to raise), 3 I/O problem, 4 internal
error (an unexpected exception, reported on one stderr line instead of a
traceback; ``verify`` names the check that raised it).

Each option is declared once, in ``_OPTIONS``; ``_COMMANDS`` names the keys
each command reads and needs, and its own defaults (truncation 25 for
``verify``). A command has a flag and a config key for each key it reads and
no other. Settings are the defaults, then a ``--config`` file of ``key =
value`` lines, then the flags; ``network`` checks lambda, sigma and truncation.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
from collections import namedtuple

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


def _parse_backend(text: str) -> str:
    if text not in ("gaussian", "fock"):
        raise InvalidArgumentError("backend must be gaussian or fock")
    return text


def _argument_type(parse):
    """``parse`` as an argparse type that keeps its error message and name:
    argparse reports a ValueError as "invalid <name> value", exit code 2."""
    @functools.wraps(parse, updated=())
    def convert(text: str):
        try:
            return parse(text)
        except InvalidArgumentError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


# config key: (attribute, parser, default, metavar, help); its flag is
# --key with "-" for "_", and it sets the same attribute
_OPTIONS = {
    "lambda": ("lam", float, None, None, None),
    "lambda_min": ("lambda_min", float, None, None, None),
    "lambda_max": ("lambda_max", float, None, None, None),
    "steps": ("steps", int, 1, None, None),
    "alpha": ("alpha", _parse_complex, None, "RE,IM",
              "input coherent amplitude (povm: 0,0 if unset); write a"
              " negative real part as --alpha=-0.3,0.6"),
    "sigma": ("sigma", float, 1.0, None, None),
    "backend": ("backend", _parse_backend, "gaussian", "{gaussian,fock}",
                None),
    "truncation": ("truncation", int, 16, None,
                   "Fock levels per mode, %d..%d" % network.TRUNCATION_RANGE),
    "seed": ("seed", int, 1234, None, None),
    "out": ("out", str, None, None, "output path (povm: stdout if unset)"),
    "phi": ("phi", float, None, None, None),
    "theta": ("theta", float, None, None, None),
    "grid": ("grid", _parse_grid, None, "N,XMAX", None),
}


def _load_config_file(path: str, command: str) -> dict:
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
            if key not in _COMMANDS[command].reads:
                raise InvalidArgumentError(
                    f"{path}:{lineno}: {command} takes no key {key!r}")
            try:
                values[key] = _OPTIONS[key][1](val.strip())
            except (ValueError, InvalidArgumentError) as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: {exc}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Defaults, then config file, then explicit flags; then the checks."""
    command = _COMMANDS[args.command]
    values = {key: command.defaults.get(key, _OPTIONS[key][2])
              for key in command.reads}
    if args.config:
        values.update(_load_config_file(args.config, args.command))
    for key in command.reads:
        flag = getattr(args, _OPTIONS[key][0])
        if flag is not None:
            values[key] = flag
    for key in command.needs:
        if values[key] is None:
            raise InvalidArgumentError(
                f"{args.command} needs --{key.replace('_', '-')}")
    for key in ("lambda_min", "lambda_max", "lambda"):
        if values.get(key) is not None:
            network.check_lambda(values[key], key)
    if "lambda_min" in values and values["lambda_min"] > values["lambda_max"]:
        raise InvalidArgumentError("lambda-min exceeds lambda-max")
    if values.get("steps", 1) < 1:
        raise InvalidArgumentError("steps must be at least 1")
    if "truncation" in values:
        network.check_truncation(values["truncation"])
    if "sigma" in values:
        network.check_sigma(values["sigma"])
    if values.get("grid") is not None:
        n, xmax = values["grid"]
        if n < 2:
            raise InvalidArgumentError("grid size must be at least 2")
        if not 0 < xmax < math.inf:
            raise InvalidArgumentError(
                "grid extent must be positive and finite")
    return argparse.Namespace(command=args.command, **{
        _OPTIONS[key][0]: value for key, value in values.items()})


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
    probe = fock.coherent_fock(cfg.alpha, cfg.truncation)
    n, xmax = cfg.grid
    xs = np.linspace(-xmax, xmax, n)
    vals = measurement.povm_density_grid(params, xs, xs, probe)
    integral = float(np.trapezoid(np.trapezoid(vals, xs, axis=1), xs))
    out = open(cfg.out, "w", encoding="utf-8", newline="\n") if cfg.out else sys.stdout
    try:
        out.write(f"# lambda = {_fmt(cfg.lam)} phi = {_fmt(cfg.phi)} "
                  f"theta = {_fmt(cfg.theta)} alpha = {cfg.alpha}\n")
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

_Command = namedtuple("_Command", "help description reads needs defaults")

# a key a command needs has no default; ``defaults`` overrides _OPTIONS
_COMMANDS = {
    "sweep": _Command(
        "CSV over a lambda grid",
        "Writes CSV columns " + _CSV_HEADER + ": amplifier gains, X variance"
        " of clone c, Y variance of clone a, their product, and the"
        " coherent-input fidelity of each clone.",
        ("lambda_min", "lambda_max", "steps", "alpha", "sigma", "out"),
        ("lambda_min", "lambda_max", "alpha", "out"), {}),
    "clone": _Command(
        "single cloning run summary", None,
        ("lambda", "alpha", "sigma", "backend", "truncation", "out"),
        ("lambda", "alpha"), {}),
    "povm": _Command(
        "outcome-density table",
        "Emits the parameter header (C, D, E, |delta|, |beta|, |gamma|, xi)"
        " and CSV columns x,x_prime,density followed by a trailing integral"
        " comment.",
        ("lambda", "phi", "theta", "grid", "alpha", "truncation", "out"),
        ("lambda", "phi", "theta", "grid"), {"alpha": 0j}),
    "verify": _Command("run the verification suite", None,
                      ("truncation", "seed"), (), {"truncation": 25}),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args keeps no state
    # allow_abbrev=False: a flag, like a config key, is taken only in full
    parser = argparse.ArgumentParser(
        prog="cvclone", allow_abbrev=False,
        description="Simulate the three-amplifier one-to-two cloning network.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False,
                           description=command.description)
        p.add_argument("--config", help="key=value file; flags override it")
        for key in command.reads:
            field, parse, _, metavar, text = _OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=field,
                           type=_argument_type(parse), metavar=metavar,
                           help=text)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
