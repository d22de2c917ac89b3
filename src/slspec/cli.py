"""Command-line front end for the direct/inverse spectral pipeline.

Subcommands: validate, direct, inverse, roundtrip, isospectral, stability,
riesz. Exit status: 0 success, 1 validation failure, 2 numerical failure
(lost positivity, missing brackets), 3 I/O or configuration error. Every
failure writes one machine-parsable line to stderr:

    error: <validation|numerical|io>: <reason>

Each subcommand accepts only the flags it reads (``_COMMANDS``); any other
flag is a configuration error. Runs are deterministic: fixed seeds, fixed discretizations, atomic output
writes, and lossless number formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._fileio import atomic_write_text
from .analysis import (
    replay_spectrum,
    riesz_condition,
    roundtrip_report,
    stability_probe,
)
from .direct import CharParams, direct_spectral_data
from .errors import NumericalError, SpectralValidationError, StructuralError
from .glm import reconstruct, write_kernel_csv
from .grid import GridFunction, read_sigma_csv, write_sigma_csv
from .spectra import (
    BoundaryKind,
    read_data_json,
    shift_spectrum,
    validate_spectral_data,
    write_data_json,
)

DEFAULT_M = 256
DEFAULT_COUNT = 64
DEFAULT_SEED = 0
DEFAULT_EPS = "0.001,0.01"
M_RANGE = (16, 4096)
COUNT_RANGE = (1, 512)


class ConfigError(Exception):
    """Bad flags or out-of-range configuration (exit status 3)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # numerical-failure status; surface a ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1) + "\n"


def _check_range(name, value, lo, hi):
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def _load_sigma(args) -> GridFunction:
    sigma = read_sigma_csv(args.input)
    if args.shift:
        sigma = GridFunction(sigma.values + args.shift * sigma.x)
    return sigma


def _load_data(args):
    data = read_data_json(args.input)
    if args.shift:
        data = shift_spectrum(data, args.shift)
    return data


def _char_params(args) -> CharParams:
    return CharParams(BoundaryKind(args.kind), h=args.h)


def _sidecar_json(output: str) -> str:
    stem, ext = os.path.splitext(os.fspath(output))
    if ext.lower() == ".json":
        return stem + ".diag.json"
    return stem + ".json"


def cmd_validate(args) -> int:
    report = validate_spectral_data(read_data_json(args.input))
    text = _json_text(report.to_dict())
    if args.output:
        atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)
    if not report.ok:
        print(f"error: validation: {report.reason}", file=sys.stderr)
        return 1
    return 0


def cmd_direct(args) -> int:
    _check_range("count", args.count, *COUNT_RANGE)
    sigma = _load_sigma(args)
    data = direct_spectral_data(sigma, args.count, _char_params(args))
    write_data_json(args.output, data)
    return 0


def cmd_inverse(args) -> int:
    _check_range("grid", args.grid, *M_RANGE)
    data = _load_data(args)
    result = reconstruct(data, args.grid)
    write_sigma_csv(args.output, result.sigma)
    diagnostics = {
        "kind": data.kind.value,
        "h": result.h,
        "positivity_margin": result.positivity_margin,
        "kernel_hs_norm": result.kernel_hs_norm,
        "grid": args.grid,
        "modes": data.K,
        "sigma_csv": os.path.basename(os.fspath(args.output)),
    }
    atomic_write_text(_sidecar_json(args.output), _json_text(diagnostics))
    if args.dump_kernel:
        write_kernel_csv(args.dump_kernel, result.kernel)
    return 0


def cmd_roundtrip(args) -> int:
    _check_range("grid", args.grid, *M_RANGE)
    _check_range("count", args.count, *COUNT_RANGE)
    sigma = _load_sigma(args)
    report = roundtrip_report(sigma, args.count, _char_params(args), args.grid)
    atomic_write_text(args.output, _json_text(report.to_dict()))
    return 0


def cmd_isospectral(args) -> int:
    _check_range("grid", args.grid, *M_RANGE)
    _check_range("count", args.count, *COUNT_RANGE)
    data = _load_data(args)
    result = reconstruct(data, args.grid)
    write_sigma_csv(args.output, result.sigma)
    n = min(data.K, args.count)
    replay = replay_spectrum(result, data.kind, n)
    errors = np.abs(replay - data.lam[:n])
    report = {
        "kind": data.kind.value,
        "margin": result.positivity_margin,
        "h": result.h,
        "replay_lambda": [float(v) for v in replay],
        "replay_errors": [float(v) for v in errors],
        "max_replay_error": float(np.max(errors)),
        "sigma_csv": os.path.basename(os.fspath(args.output)),
    }
    atomic_write_text(_sidecar_json(args.output), _json_text(report))
    return 0


def cmd_stability(args) -> int:
    _check_range("grid", args.grid, *M_RANGE)
    try:
        eps_list = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --eps list {args.eps!r}: {exc}") from exc
    if not eps_list or any(e < 0 for e in eps_list):
        raise ConfigError("--eps needs a comma-separated list of nonnegative reals")
    rows = stability_probe(_load_data(args), eps_list, args.grid, args.seed)
    lines = ["eps,data_norm,sigma_error"]
    for row in rows:
        # data_norm is the perturbation's l2 norm, which is eps by construction.
        lines.append(f"{row.eps!r},{row.eps!r},{row.sigma_error!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        atomic_write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_riesz(args) -> int:
    data = _load_data(args)
    basis = "sine" if data.kind.dirichlet_at_zero else "cosine"
    condition = riesz_condition(data.lam, basis)
    print(repr(condition))
    return 0


_FLAGS = {
    "--grid": dict(type=int, default=DEFAULT_M, metavar="M",
                   help=f"reconstruction grid size (default {DEFAULT_M})"),
    "--count": dict(type=int, default=DEFAULT_COUNT, metavar="K",
                    help=f"number of modes (default {DEFAULT_COUNT})"),
    "--kind": dict(choices=[k.value for k in BoundaryKind], default="DD",
                   help="boundary kind (default DD)"),
    "--h": dict(type=float, default=0.0,
                help="third-type boundary parameter (NT/DN only)"),
    "--shift": dict(type=float, default=0.0, metavar="C",
                    help="shift sigma by C*x (CSV inputs) or the data "
                         "spectrum by C (JSON inputs)"),
    "--seed": dict(type=int, default=DEFAULT_SEED,
                   help=f"rng seed (default {DEFAULT_SEED})"),
    "--eps": dict(default=DEFAULT_EPS,
                  help=f"perturbation sizes, comma list (default {DEFAULT_EPS})"),
    "--dump-kernel": dict(metavar="PATH",
                          help="also dump the triangular kernel as i,j,k CSV"),
}

# name: (handler, help, --output, the flags the handler reads). --output is
# required (True), optional with stdout as default (False) or absent (None).
# Any flag not listed is rejected like an unknown one (exit status 3).
_COMMANDS = {
    "validate": (cmd_validate, "check spectral-data JSON, emit a validation report",
                 False, ()),
    "direct": (cmd_direct, "spectral data JSON from a sigma CSV",
               True, ("--count", "--kind", "--h", "--shift")),
    "inverse": (cmd_inverse, "reconstruct sigma CSV (+ diagnostics JSON) from data JSON",
                True, ("--grid", "--shift", "--dump-kernel")),
    "roundtrip": (cmd_roundtrip, "direct + inverse on a sigma CSV, emit a comparison report",
                  True, ("--grid", "--count", "--kind", "--h", "--shift")),
    "isospectral": (cmd_isospectral,
                    "reconstruct one isospectral member and replay its spectrum",
                    True, ("--grid", "--count", "--shift")),
    "stability": (cmd_stability, "perturbation response table for a dataset",
                  False, ("--grid", "--shift", "--seed", "--eps")),
    "riesz": (cmd_riesz, "Gram-matrix condition number of the data's frequency "
                         "system, on stdout",
              None, ("--shift",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, output, flags) in _COMMANDS.items():
        # No abbreviations: a prefix such as --h would otherwise select
        # --help on subcommands that do not read --h.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--input", required=True, help="input file path")
        if output is not None:
            p.add_argument(
                "--output",
                required=output,
                help="output file path" + ("" if output else " (default stdout)"),
            )
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _fail(category: str, exc: BaseException) -> None:
    message = " ".join(str(exc).split())
    print(f"error: {category}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        _fail("io", exc)
        return 3
    try:
        return args.func(args)
    except SpectralValidationError as exc:
        _fail("validation", exc)
        return 1
    except NumericalError as exc:
        _fail("numerical", exc)
        return 2
    except (StructuralError, ConfigError, OSError) as exc:
        _fail("io", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
