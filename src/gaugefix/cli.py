"""Command-line harness.

Subcommands: evolve (field run from a JSON config, CSV diagnostics out),
symbol (hyperbolicity report as JSON), project (snapshot onto the
constraint surface), constraints (run the Dirac-Bergmann pipeline on a
built-in model). Exit codes: 0 success, 1 configuration or input error
(or out of memory), 2 evolution aborted on non-finite values. Given the
same config and seed the outputs are byte-identical. Imported before numpy,
this module starts numpy's BLAS on one thread unless OPENBLAS_NUM_THREADS
is set, since no command has BLAS work large enough to share.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Callable

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import evolution, fields

SCENARIOS = ("plane_wave", "contaminated", "random_smooth")


class ConfigError(ValueError):
    """Bad run configuration (unknown keys, missing values, wrong types)."""


@dataclass
class RunConfig:
    """Evolution run description, loaded from JSON.

    Unknown keys are rejected outright so typos fail loudly instead of
    silently running defaults.
    """

    scenario: str
    dt: float
    t_end: float
    grid_n: int = 32
    domain_length: float = 2.0 * np.pi
    formulation: str = "canonical"
    stepper: str = "rk4"
    mode: tuple = (1, 0, 0)
    polarization: tuple = (0.0, 1.0, 0.0)
    amplitude: float = 1.0
    contamination_amplitude: float = 0.1
    reproject_every: int | None = None
    stride: int | None = None
    seed: int | None = None
    out_csv: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = [k for k in ("scenario", "dt", "t_end") if k not in raw]
        if missing:
            raise ConfigError(f"missing required config keys: {', '.join(missing)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        self.dt = _number(self.dt, "dt and t_end must be finite numbers")
        self.t_end = _number(self.t_end, "dt and t_end must be finite numbers")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end >= self.dt:
            raise ConfigError("t_end must be at least one step long")
        if not _is_int(self.grid_n) or not 4 <= self.grid_n <= np.iinfo(np.intp).max:
            raise ConfigError(f"grid_n must be an integer from 4 to {np.iinfo(np.intp).max}, "
                              f"got {self.grid_n!r}")
        message = "domain_length must be a positive finite number"
        self.domain_length = _number(self.domain_length, message)
        if not self.domain_length > 0:
            raise ConfigError(message)
        for name, kind, names in (("formulation", fields.FormulationKind,
                                   "canonical or gauge-fixed"),
                                  ("stepper", evolution.StepperKind, "rk4 or stormer_verlet")):
            try:
                evolution._coerce(kind, value := getattr(self, name))
            except ValueError:
                raise ConfigError(f"{name} must be {names}, got {value!r}") from None
        if not (_is_triple(self.mode) and all(map(_is_int, self.mode))):
            raise ConfigError("mode must be a 3-vector of integers")
        message = "polarization must be a 3-vector of finite numbers"
        if not _is_triple(self.polarization):
            raise ConfigError(message)
        self.polarization = tuple(_number(v, message) for v in self.polarization)
        self.amplitude = _number(self.amplitude, "amplitude must be a finite number")
        self.contamination_amplitude = _number(
            self.contamination_amplitude, "contamination_amplitude must be a finite number")
        if self.reproject_every is not None and (
                not _is_int(self.reproject_every) or self.reproject_every < 1):
            raise ConfigError("reproject_every must be a positive integer or null")
        if self.stride is not None and (not _is_int(self.stride) or self.stride < 1):
            raise ConfigError("stride must be a positive integer or null")
        if self.seed is not None and (not _is_int(self.seed) or self.seed < 0):
            raise ConfigError("seed must be a non-negative integer or null")
        if self.out_csv is not None and not isinstance(self.out_csv, str):
            raise ConfigError("out_csv must be a path string or null")
        if self.scenario == "random_smooth" and self.seed is None:
            raise ConfigError("scenario random_smooth requires a seed")
        if self.scenario == "contaminated" and not self.contamination_amplitude > 0:
            raise ConfigError("scenario contaminated requires contamination_amplitude > 0")


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_triple(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 3


def _number(value, message: str) -> float:
    """A finite JSON number (not a bool) as a float, else ConfigError(message)."""
    # The comparison is exact for ints, so float() cannot overflow, and it
    # fails for inf and nan.
    if (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(message)


def load_config(path, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if seed_override is not None:
        raw = dict(raw, seed=seed_override)
    return RunConfig.from_dict(raw)


def build_initial_data(cfg: RunConfig):
    """Construct (initial data, reference) for a run config.

    plane_wave and contaminated give their few Fourier coefficients
    (fields.SparseSpectrum), random_smooth a grid state. plane_wave ships
    the exact standing-wave solution as reference; the other scenarios
    have none, so the l2_error column will be NaN.
    """
    try:
        if cfg.scenario in ("plane_wave", "contaminated"):
            kind = "transverse" if cfg.scenario == "plane_wave" else "contaminated"
            state = fields.plane_wave_spectrum(
                cfg.mode, cfg.polarization, cfg.amplitude, kind=kind,
                grid_n=cfg.grid_n, domain_length=cfg.domain_length,
                contamination_amplitude=cfg.contamination_amplitude)
            reference = None
            if cfg.scenario == "plane_wave":
                reference = fields.plane_wave_reference(
                    cfg.mode, cfg.polarization, cfg.amplitude,
                    grid_n=cfg.grid_n, domain_length=cfg.domain_length)
            return state, reference
        rng = np.random.default_rng(cfg.seed)
        a_raw, pi_raw = fields.random_smooth_fields(
            rng, cfg.grid_n, cfg.domain_length, cfg.amplitude)
        return fields.correct_initial_data(a_raw, pi_raw, cfg.domain_length), None
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_evolve(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if args.formulation is not None:
        cfg.formulation = args.formulation
        cfg.validate()
    out = args.out or cfg.out_csv
    if out is None:
        raise ConfigError("no output path: pass --out or set out_csv in the config")
    # Checked before the run, which can take long, not when the CSV is written.
    if os.path.isdir(out):
        raise ConfigError(f"cannot write {out}: it is a directory")
    if not os.path.isdir(parent := os.path.dirname(out) or "."):
        raise ConfigError(f"cannot write {out}: {parent} is not a directory")
    state, reference = build_initial_data(cfg)
    series = evolution.evolve(
        state, cfg.formulation, cfg.stepper, cfg.dt, cfg.t_end,
        reproject_every=cfg.reproject_every, reference=reference,
        stride=cfg.stride)
    series.to_csv(out)
    if series.aborted:
        print(f"evolution aborted at t={series.abort_time!r}: non-finite state",
              file=sys.stderr)
        print(f"wrote {out} ({len(series.t)} rows, aborted)")
        return 2
    print(f"wrote {out} ({len(series.t)} rows)")
    return 0


def _seed(args) -> int:
    """The --seed of symbol and constraints, 0 when it is not given."""
    if args.seed is None:
        return 0
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def cmd_symbol(args) -> int:
    from . import symbols

    seed = _seed(args)
    if args.formulation == "canonical":
        sym = symbols.maxwell_canonical_symbol()
    else:
        sym = symbols.maxwell_gauge_fixed_symbol()
    report = symbols.analyze_symbol(sym, tol_imag=args.tol, seed=seed)
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"classification: {report.classification.value} (wrote {args.out})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_project(args) -> int:
    if not args.tol >= 0:
        raise ConfigError(f"--tol must be a non-negative number, got {args.tol!r}")
    before, after = fields.project_snapshot(args.input, args.out)
    print(f"before: norm_divA={before[0]!r} norm_divPi={before[1]!r}")
    print(f"after:  norm_divA={after[0]!r} norm_divPi={after[1]!r}")
    if args.tol > 0 and max(after) >= args.tol:
        print(f"projection left constraint norms above tol={args.tol!r}",
              file=sys.stderr)
        return 1
    return 0


def cmd_constraints(args) -> int:
    from . import toys
    from .constraints import (
        GaugeNotFixedError,
        classify_constraints,
        commutation_matrix,
        consistency_chain,
        dirac_bracket,
    )
    from .phase import poisson_bracket

    _seed(args)  # validated only: nothing is sampled
    model = toys.get_model(args.model)
    form = model.system.form

    chain = consistency_chain(model.system, model.primaries)
    classified = classify_constraints(chain, form=form)
    point = model.sample_point
    mat = commutation_matrix(classified, point, form)

    checks = []
    note = None
    pairs = [(fa, fb) for i, fa in enumerate(model.check_functions)
             for fb in model.check_functions[i + 1:]]
    for (la, fa), (lb, fb) in pairs:
        entry = {
            "f": la,
            "g": lb,
            "poisson": float(np.round(poisson_bracket(fa, fb, point, form), 14)),
        }
        try:
            entry["dirac"] = float(np.round(
                dirac_bracket(fa, fb, classified, point, form), 14))
        except GaugeNotFixedError as exc:
            entry["dirac"] = None
            note = str(exc)
        checks.append(entry)

    result = {
        "model": model.name,
        "phase_dim": classified.dim,
        "primaries": model.primaries.labels,
        "chain": [{"label": c.label, "origin": c.origin.value} for c in classified],
        "classification": [
            {"label": c.label, "class": c.class_label.value} for c in classified
        ],
        "commutation_matrix": {
            "point": [float(v) for v in point],
            "entries": [[float(np.round(v, 14)) for v in row] for row in mat.entries],
        },
        "dirac_checks": checks,
    }
    if note is not None:
        result["dirac_note"] = note
    text = json.dumps(result, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


PROG = "gaugefix"


def _arg(*flags, **kwargs):
    """One ``add_argument`` call of a command's parser."""
    return flags, kwargs


@dataclass(frozen=True)
class Command:
    """A subcommand: its help line, its handler and its arguments.

    ``arguments`` returns the ``_arg`` tuples when the command's parser is
    built, so a command's modules load only when its parser is needed.
    """

    help: str
    run: Callable[[argparse.Namespace], int]
    arguments: Callable[[], tuple]


def _constraints_arguments() -> tuple:
    from . import toys

    return (
        _arg("model", choices=sorted(toys.BUILTIN_MODELS)),
        _arg("--out", default=None, help="JSON report path (default stdout)"),
        _arg("--seed", type=int, default=None,
             help="accepted and checked, but has no effect: the chain and the "
                  "classes are exact, so nothing is sampled"),
    )


COMMANDS = {
    "evolve": Command("run a field evolution from a JSON config", cmd_evolve, lambda: (
        _arg("--config", required=True, help="path to the run config JSON"),
        _arg("--formulation", choices=["canonical", "gauge-fixed"], default=None,
             help="override the config's formulation"),
        _arg("--out", default=None, help="diagnostics CSV path"),
        _arg("--seed", type=int, default=None, help="override the config seed"),
    )),
    "symbol": Command("principal-symbol hyperbolicity report", cmd_symbol, lambda: (
        _arg("--formulation", choices=["canonical", "gauge-fixed"], required=True),
        _arg("--out", default=None, help="JSON report path (default stdout)"),
        _arg("--tol", type=float, default=1e-10,
             help="imaginary-part tolerance for eigenvalues"),
        _arg("--seed", type=int, default=None, help="seed for the random direction samples"),
    )),
    "project": Command("project a snapshot onto the constraint surface", cmd_project, lambda: (
        _arg("input", help="snapshot file to project"),
        _arg("--out", required=True, help="projected snapshot path"),
        _arg("--tol", type=float, default=0.0,
             help="fail if post-projection norms exceed this (0 disables)"),
    )),
    "constraints": Command("Dirac-Bergmann pipeline on a built-in model", cmd_constraints,
                           _constraints_arguments),
}


def _command_parser(parser: argparse.ArgumentParser,
                    command: Command) -> argparse.ArgumentParser:
    for flags, kwargs in command.arguments():
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=command.run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command as a subparser of ``gaugefix``."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="constrained Maxwell evolution and Dirac-Bergmann analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=command.help), command)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, building only the named command's parser when one is named.

    That parser is the subparser ``build_parser`` makes for the command, so
    its help, errors and exit codes are the same. Left-over arguments are
    reported by the top-level parser, so those go to the full parser, as
    does anything that does not start with a command name.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        parser = _command_parser(argparse.ArgumentParser(prog=f"{PROG} {argv[0]}"), command)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ValueError covers ConfigError, SnapshotFormatError and library
        # input guards reachable from the command line, such as --tol 0.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy says what it could not allocate; the interpreter's own
        # MemoryError has no message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
