"""Command line interface: steady, sweep, bound-report, verify.

Exit codes: 0 success, 1 configuration or usage error, 2 model or numerical
failure (non-mixing dynamics, failed certification, failed verify suite).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from .bounds import certify_bound
from .errors import ConfigError, IoqfrError
from .lindblad import (
    LindbladModel,
    kinetic_signal,
    model_fingerprint,
    prepare,
    tangent_signal,
)
from .models import REGISTRY, classical_jump_model
from .numkit import DEFAULT_TOL, ToleranceSet
from .verify import SUITES, run_suites

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# option parsing helpers

def _parse_pairs(pairs: Sequence[str], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"{what} {item!r} is not of the form name=value")
        out[key] = value
    return out


def _number(value: Any, what: str, integer: bool = False) -> float | int:
    """A finite float (or int) from a JSON number or a command-line string.
    JSON booleans are rejected; an integer field takes any value that reads
    as a finite integral float, such as 6, 6.0 or "6.0"."""
    if isinstance(value, bool):
        raise ConfigError(f"{what}={value!r} is not a number")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what}={value!r} is not a number") from None
    if not math.isfinite(number):
        raise ConfigError(f"{what}={value!r} is not finite")
    if integer and not number.is_integer():
        raise ConfigError(f"{what}={value!r} is not an integer")
    return int(number) if integer else number


def _number_array(value: Any, what: str) -> np.ndarray:
    """A float array from nested JSON lists, each entry checked by _number."""
    def convert(item: Any, where: str) -> Any:
        if isinstance(item, list):
            return [convert(x, f"{where}[{i}]") for i, x in enumerate(item)]
        return _number(item, where)
    try:
        return np.array(convert(value, what), dtype=float)
    except ValueError:
        raise ConfigError(f"{what}: nested lists of unequal length") from None


def _parse_tol(pairs: Sequence[str]) -> ToleranceSet:
    raw = _parse_pairs(pairs, "--tol")
    known = {f.name for f in dataclasses.fields(ToleranceSet)}
    overrides = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(
                f"unknown tolerance {key!r}; known: {', '.join(sorted(known))}")
        overrides[key] = _number(value, f"tolerance {key}")
        if overrides[key] <= 0.0:
            raise ConfigError(f"tolerance {key}={value!r} is not positive")
    return DEFAULT_TOL.replacing(**overrides) if overrides else DEFAULT_TOL


def _parse_params(name: str, pairs: Sequence[str], base: dict | None = None) -> Any:
    cls = REGISTRY[name].params
    fields = {f.name: f for f in dataclasses.fields(cls)}
    aliases = REGISTRY[name].aliases
    merged: dict[str, Any] = {}
    if base is not None and not isinstance(base, dict):
        raise ConfigError(f"model {name!r}: params must be an object")
    items = list((base or {}).items()) \
        + list(_parse_pairs(pairs, "--param").items())
    for key, value in items:
        canonical = aliases.get(key, key)
        if canonical not in fields:
            raise ConfigError(
                f"model {name!r} has no parameter {key!r}; known: "
                + ", ".join(sorted(set(fields) | set(aliases))))
        merged[canonical] = value
    converted = {key: _number(value, f"parameter {key}", fields[key].type == "int")
                 for key, value in merged.items()}
    try:
        return cls(**converted)
    except (IoqfrError, ValueError) as err:
        raise ConfigError(str(err)) from None


# ---------------------------------------------------------------------------
# JSON model configs

def _operator_from_entries(entries: Any, dim: int, what: str) -> np.ndarray:
    if not isinstance(entries, list):
        raise ConfigError(f"{what}: expected a list of matrix entries")
    op = np.zeros((dim, dim), dtype=complex)
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or not {"row", "col"} <= set(entry):
            raise ConfigError(f"{what}[{k}]: entries need row and col keys")
        extra = set(entry) - {"row", "col", "re", "im"}
        if extra:
            raise ConfigError(f"{what}[{k}]: unknown keys {sorted(extra)}")
        row = _number(entry["row"], f"{what}[{k}].row", integer=True)
        col = _number(entry["col"], f"{what}[{k}].col", integer=True)
        if not (0 <= row < dim and 0 <= col < dim):
            raise ConfigError(f"{what}[{k}]: indices ({row}, {col}) outside "
                              f"dimension {dim}")
        op[row, col] += complex(_number(entry.get("re", 0.0), f"{what}[{k}].re"),
                                _number(entry.get("im", 0.0), f"{what}[{k}].im"))
    return op


def _signal_from_config(spec: Any, dim: int, n_channels: int):
    if not isinstance(spec, dict) or "mode" not in spec:
        raise ConfigError("signal: expected an object with a mode key")
    mode = spec["mode"]
    if mode == "kinetic":
        if "coefficients" not in spec:
            raise ConfigError("signal: kinetic mode needs a numeric "
                              "coefficients matrix")
        return kinetic_signal(_number_array(spec["coefficients"],
                                            "signal.coefficients"))
    if mode == "tangent":
        grid = spec.get("tangents")
        if not isinstance(grid, list) or len(grid) != n_channels:
            raise ConfigError(
                f"signal: tangent mode needs one row per channel ({n_channels})")
        rows = []
        for mu, row in enumerate(grid):
            if not isinstance(row, list):
                raise ConfigError(f"signal.tangents[{mu}]: expected a list")
            rows.append([
                None if cell is None else
                _operator_from_entries(cell, dim, f"signal.tangents[{mu}][{q}]")
                for q, cell in enumerate(row)
            ])
        return tangent_signal(rows)
    raise ConfigError(f"signal: unknown mode {mode!r}")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return config


def _custom_model(config: dict, path: str) -> LindbladModel:
    dim = _number(config.get("dim"), f"config {path}: dim", integer=True)
    if dim < 1:
        raise ConfigError(f"config {path}: custom model needs a positive "
                          "integer dim")
    for key in ("channels", "monitored"):
        if not isinstance(config.get(key, []), list):
            raise ConfigError(f"config {path}: {key} must be a list")
    hamiltonian = _operator_from_entries(
        config.get("hamiltonian", []), dim, "hamiltonian")
    channels = [
        _operator_from_entries(entries, dim, f"channels[{mu}]")
        for mu, entries in enumerate(config.get("channels", []))
    ]
    monitored = []
    for k, item in enumerate(config.get("monitored", [])):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"config {path}: monitored[{k}] must be "
                              "[channel_index, theta]")
        where = f"config {path}: monitored[{k}]"
        monitored.append((_number(item[0], f"{where} channel", integer=True),
                          _number(item[1], f"{where} theta")))
    try:
        signal = None
        if config.get("signal") is not None:
            signal = _signal_from_config(config["signal"], dim, len(channels))
        return LindbladModel(hamiltonian=hamiltonian, channels=tuple(channels),
                             monitored=tuple(monitored), signal=signal)
    except (IoqfrError, ValueError) as err:
        raise ConfigError(f"config {path}: {err}") from None


@dataclasses.dataclass
class ModelSpec:
    """Resolved --model: a registry family with its parameters and requested
    monitored phases, or a model fixed by a JSON config."""

    name: str
    params: Any = None
    fixed: LindbladModel | None = None
    thetas: tuple[float, ...] = ()

    def model(self, command: str) -> LindbladModel:
        """The Lindblad model, monitored at the first requested phase (the
        builder's default when none was requested). Only sweep takes more
        than one phase."""
        if len(self.thetas) > 1 and command != "sweep":
            raise ConfigError(f"{command} takes one monitored phase, got "
                              f"{len(self.thetas)}; only sweep repeats --theta")
        if self.fixed is not None:
            return self.fixed
        return REGISTRY[self.name].build(self.params, *self.thetas[:1])


def _phased() -> str:
    """The registry models whose monitored phase --theta sets."""
    names = [n for n, e in REGISTRY.items() if e.build is not None]
    return ", ".join(names[:-1]) + " and " + names[-1]


def _resolve_model(args: argparse.Namespace) -> ModelSpec:
    name = args.model
    params = list(args.param or [])
    thetas = tuple(_number(t, "--theta") for t in (args.theta or ()))
    if name in REGISTRY:
        config: dict = {}
    elif name.endswith(".json") or os.path.sep in name or os.path.exists(name):
        config = _load_config(name)
        declared = config.get("model")
        if declared not in REGISTRY:
            raise ConfigError(
                f"config {name}: model must be one of {', '.join(REGISTRY)}; "
                f"got {declared!r}")
        if not thetas and config.get("theta") is not None:
            raw = config["theta"]
            if not isinstance(raw, list):
                raise ConfigError(f"config {name}: theta must be a list")
            thetas = tuple(_number(t, f"config {name}: theta item")
                           for t in raw)
        name, path = declared, name
    else:
        raise ConfigError(
            f"unknown model {name!r}: not a registry name "
            f"({', '.join(REGISTRY)}) and no such config file")

    entry = REGISTRY[name]
    if entry.params is not None:
        return ModelSpec(name=name, thetas=thetas,
                         params=_parse_params(name, params, config.get("params")))
    if params:
        raise ConfigError(f"model {name!r} takes a JSON config, not --param")
    if thetas:
        raise ConfigError(f"model {name!r} fixes its monitored currents in "
                          f"the config; --theta only applies to {_phased()}")
    if name == "classical_jump":
        if not config:
            raise ConfigError("classical_jump needs a JSON config with rates "
                              "and weights")
        if "rates" not in config or "weights" not in config:
            raise ConfigError(f"config {path}: classical_jump needs numeric "
                              "rates and weights arrays")
        rates = _number_array(config["rates"], f"config {path}: rates")
        weights = _number_array(config["weights"], f"config {path}: weights")
        try:
            return ModelSpec(name=name,
                             fixed=classical_jump_model(rates, weights))
        except (IoqfrError, ValueError) as err:
            raise ConfigError(f"config {path}: {err}") from None
    if not config:
        raise ConfigError("custom models are defined by a JSON config")
    return ModelSpec(name=name, fixed=_custom_model(config, path))


# ---------------------------------------------------------------------------
# output helpers

def _emit_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(obj: Any, out: str | None) -> None:
    _emit_text(json.dumps(obj, indent=2) + "\n", out)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_steady(args: argparse.Namespace) -> int:
    tol = _parse_tol(args.tol or [])
    spec = _resolve_model(args)
    model = spec.model("steady")
    system = prepare(model, tol)
    rho = system.rho
    report: dict[str, Any] = {
        "model": spec.name,
        "model_hash": model_fingerprint(model),
        "dim": model.dim,
        "gap": float(system.steady.gap),
        "residual": float(system.steady.residual),
        "populations": [float(p) for p in np.real(np.diag(rho))],
        "rho_re": np.real(rho).tolist(),
        "rho_im": np.imag(rho).tolist(),
    }
    report.update(REGISTRY[spec.name].report(rho))
    _emit_json(report, args.out)
    return 0


def _sweep_grid(args: argparse.Namespace) -> np.ndarray:
    wmin, wmax = _number(args.wmin, "--wmin"), _number(args.wmax, "--wmax")
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
    if args.n > 1 and wmax <= wmin:
        raise ConfigError("--wmax must exceed --wmin")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(wmin, wmax, args.n)
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"the grid from --wmin={wmin!r} to --wmax={wmax!r} "
                          "overflows")
    return grid


def _point_columns(pt, m: int, n_par: int) -> list[tuple[str, str]]:
    cols: list[tuple[str, str]] = []
    smat = pt.noise.complex_matrix
    rmat = pt.response.complex_matrix
    if m == 1:
        cols.append(("S", _fmt(smat[0, 0].real)))
        cols += [(f"Re_R_{q}", _fmt(rmat[0, q].real)) for q in range(n_par)]
        cols += [(f"Im_R_{q}", _fmt(rmat[0, q].imag)) for q in range(n_par)]
        cols += [(f"r_{q}", _fmt(pt.scalar_ratios[q])) for q in range(n_par)]
    else:
        cols += [(f"Re_S_{a}_{b}", _fmt(smat[a, b].real))
                 for a in range(m) for b in range(a, m)]
        cols += [(f"Im_S_{a}_{b}", _fmt(smat[a, b].imag))
                 for a in range(m) for b in range(a + 1, m)]
        cols += [(f"Re_R_{a}_{q}", _fmt(rmat[a, q].real))
                 for a in range(m) for q in range(n_par)]
        cols += [(f"Im_R_{a}_{q}", _fmt(rmat[a, q].imag))
                 for a in range(m) for q in range(n_par)]
    cols.append(("lambda_max", _fmt(pt.lambda_max)))
    cols.append(("margin_min", _fmt(pt.margin_min)))
    cols.append(("pass", "1" if pt.passed else "0"))
    return cols


def _bound_model(spec: ModelSpec, command: str) -> LindbladModel:
    """The model of sweep or bound-report: monitored and with a signal."""
    model = spec.model(command)
    if not model.monitored:
        raise ConfigError(f"model {spec.name!r} has no monitored currents; "
                          f"{command} needs at least one")
    if model.signal is None:
        raise ConfigError(f"model {spec.name!r} has no signal parametrization")
    return model


def _cmd_sweep(args: argparse.Namespace) -> int:
    """One certificate per requested phase, written out side by side."""
    tol = _parse_tol(args.tol or [])
    spec = _resolve_model(args)
    base_model = _bound_model(spec, "sweep")
    omegas = _sweep_grid(args)
    base = prepare(base_model, tol)
    systems = [base]
    for theta in spec.thetas[1:]:
        systems.append(base.with_monitored(
            [(mu, theta) for mu, _ in base_model.monitored]))
    m = len(base_model.monitored)
    n_par = base_model.n_params

    header = ["omega"]
    rows = [[_fmt(w)] for w in omegas]
    for k, system in enumerate(systems):
        suffix = f"_th{k}" if len(systems) > 1 else ""
        for row, point in zip(rows, certify_bound(system, omegas).points):
            columns = _point_columns(point, m, n_par)
            row.extend(value for _, value in columns)
        header.extend(name + suffix for name, _ in columns)

    if args.json:
        _emit_json({"columns": header, "rows": rows}, args.out)
        return 0
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit_text(text.getvalue(), args.out)
    return 0


def _cmd_bound_report(args: argparse.Namespace) -> int:
    tol = _parse_tol(args.tol or [])
    spec = _resolve_model(args)
    omegas = _sweep_grid(args)
    system = prepare(_bound_model(spec, "bound-report"), tol)
    report = certify_bound(system, omegas)
    payload: dict[str, Any] = {
        "model": spec.name,
        "kind": "fluctuation_response_bound",
        "omegas": report.omegas.tolist(),
        "activity": report.activity.tolist(),
        "lambda_max": report.lambda_max.tolist(),
        "margin_min": report.margin_min.tolist(),
        "support_leak": report.support_leak.tolist(),
        "scalar_ratios": None if report.scalar_ratios is None
        else report.scalar_ratios.tolist(),
        "passed": report.passed.tolist(),
        "notes": [n for n in report.notes],
        "all_passed": report.all_passed,
        "metadata": report.metadata,
    }
    _emit_json(payload, args.out)
    return 0 if report.all_passed else 2


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = _parse_tol(args.tol or [])
    names = args.suites or None
    try:
        results = run_suites(names, tol)
    except KeyError as err:
        raise ConfigError(
            f"{err.args[0]}; known: {', '.join(SUITES)}") from None
    ok = all(r.passed and r.duration <= r.limit for r in results)
    if args.json:
        _emit_json([{
            "name": r.name, "passed": r.passed, "duration": r.duration,
            "limit": r.limit, "detail": r.detail,
        } for r in results], args.out)
        return 0 if ok else 2
    lines = []
    for r in results:
        over = "" if r.duration <= r.limit else f" (over {r.limit:g}s limit)"
        status = r.status if r.duration <= r.limit else "FAIL"
        lines.append(f"{status} {r.name:24s} {r.duration:7.2f}s{over}  {r.detail}")
    passed = sum(1 for r in results if r.passed and r.duration <= r.limit)
    lines.append(f"{passed}/{len(results)} suites passed")
    _emit_text("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser

def _param_help() -> str:
    groups = []
    for name, entry in REGISTRY.items():
        if entry.params is None:
            continue
        alias_of = {field: alias for alias, field in entry.aliases.items()}
        names = [f.name + (f"/{alias_of[f.name]}" if f.name in alias_of else "")
                 for f in dataclasses.fields(entry.params)]
        groups.append(f"{name}: {', '.join(names)}")
    return "model parameter override, repeatable (" + "; ".join(groups) + ")"


def _add_model_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", default="rf",
                     help="registry name (%s) or path to a JSON model config"
                     % ", ".join(REGISTRY))
    sub.add_argument("--param", action="append", metavar="NAME=VALUE",
                     help=_param_help())
    sub.add_argument("--theta", action="append", type=float, metavar="RAD",
                     help="monitored quadrature phase; sweep repeats it for "
                     f"per-phase column groups ({_phased()} only)")
    sub.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="tolerance override, repeatable")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_grid_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--wmin", default=0.0,
                     help="lowest frequency (default 0)")
    sub.add_argument("--wmax", default=5.0,
                     help="highest frequency (default 5)")
    sub.add_argument("--n", type=int, default=201,
                     help="number of grid points (default 201)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ioqfr",
                     description="Homodyne spectra, lock-in response, and "
                     "fluctuation-response bound certification for Markovian "
                     "open quantum systems.")
    commands = parser.add_subparsers(dest="command", required=True)

    steady = commands.add_parser(
        "steady", parents=[], help="stationary state report (JSON)")
    _add_model_options(steady)
    steady.set_defaults(func=_cmd_steady)

    sweep = commands.add_parser(
        "sweep", help="spectrum, response, and bound margins over a "
        "frequency grid (CSV)")
    _add_model_options(sweep)
    _add_grid_options(sweep)
    sweep.add_argument("--json", action="store_true",
                       help="emit JSON instead of CSV")
    sweep.set_defaults(func=_cmd_sweep)

    bound = commands.add_parser(
        "bound-report", help="certify the fluctuation-response bound over a "
        "frequency grid (JSON); exit 2 on violation")
    _add_model_options(bound)
    _add_grid_options(bound)
    bound.set_defaults(func=_cmd_bound_report)

    verify = commands.add_parser(
        "verify", help="run acceptance suites; exit 2 on any failure")
    verify.add_argument("suites", nargs="*",
                        help="suite names (default: all); known: "
                        + ", ".join(SUITES))
    verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override, repeatable")
    verify.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")
    verify.add_argument("--out", default=None,
                        help="output path (default stdout)")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except IoqfrError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
