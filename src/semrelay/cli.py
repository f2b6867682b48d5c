"""Command-line front end: config files, experiment sweeps, CSV output.

Config files are flat `key=value` text with `#` comments; unknown keys are
rejected and missing keys fall back to the built-in defaults. Sweeps write
one CSV row per bandwidth value with every scheme's rate and status; rows
are deterministic, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from semrelay.baselines import (
    GridSpec,
    df_search,
    equal_bandwidth_search,
    fixed_placement_search,
    oracle_search,
)
from semrelay.model import SigmoidFit, SystemParams
from semrelay.penalty import PenaltyConfig, run

# Exit codes of the `solve` command (also used by `sweep`/`compare` for
# usage and config errors).
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATION_CAP = 3

ORACLE_GRID = 1001  # points per axis of the oracle and DF grids
LINE_GRID = 10001  # points of the equal-split and fixed-placement line searches

_SYSTEM_KEYS = tuple(f.name for f in dataclasses.fields(SystemParams))
_FIT_KEYS = tuple(f.name for f in dataclasses.fields(SigmoidFit))
_PENALTY_KEYS = tuple(f.name for f in dataclasses.fields(PenaltyConfig))
_INT_KEYS = {"max_inner", "max_outer"}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _open_utf8(path: str, newline=None) -> io.StringIO:
    """The text of a UTF-8 file as a stream that splits lines as
    open(path, newline=newline) does. A file that is not UTF-8 raises
    ConfigError naming the line of its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def load_config(path: str) -> tuple[SystemParams, SigmoidFit, PenaltyConfig]:
    """Parse a key=value config file; missing keys take the defaults."""
    values: dict[str, float] = {}
    with _open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _SYSTEM_KEYS + _FIT_KEYS + _PENALTY_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                num = float(text)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: invalid number {text!r} for {key!r}") from None
            if key in _INT_KEYS:
                if not math.isfinite(num) or num != int(num):
                    raise ConfigError(f"{path}:{lineno}: {key!r} must be an integer")
                num = int(num)
            values[key] = num
    return build_config(values)


def build_config(values: dict) -> tuple[SystemParams, SigmoidFit, PenaltyConfig]:
    """Construct the three parameter sets from a key-value mapping."""
    try:
        params = SystemParams(**{k: values[k] for k in _SYSTEM_KEYS if k in values})
        fit = SigmoidFit(**{k: values[k] for k in _FIT_KEYS if k in values})
        cfg = PenaltyConfig(**{k: values[k] for k in _PENALTY_KEYS if k in values})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params, fit, cfg


def dump_config(params: SystemParams, fit: SigmoidFit, cfg: PenaltyConfig) -> str:
    """Render a config that load_config parses back to identical values."""
    lines = []
    for obj in (params, fit, cfg):
        for f in dataclasses.fields(obj):
            lines.append(f"{f.name}={getattr(obj, f.name)!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepRow:
    """One bandwidth point of a sweep; None marks an infeasible scheme."""

    W: float
    eta_penalty: float | None
    eta_oracle: float | None
    eta_equal_bw: float | None
    eta_fixed_place: float | None
    eta_df: float | None
    alpha_br_opt: float | None  # penalty solver decision
    d_br_opt: float | None  # penalty solver decision
    zeta: float | None
    status_penalty: str
    status_oracle: str
    status_equal_bw: str
    status_fixed_place: str
    status_df: str


SWEEP_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))


def sweep_bandwidths(w_min: float, w_max: float, points: int, log_spacing: bool = True):
    """Deterministic list of bandwidth values, ascending."""
    if not (math.isfinite(w_min) and math.isfinite(w_max)):
        raise ValueError("w_min and w_max must be finite")
    if not w_min > 0:
        raise ValueError("w_min must be positive")
    if w_max < w_min:
        raise ValueError("w_max must be at least w_min")
    if not isinstance(points, numbers.Integral):
        raise ValueError("points must be an integer")
    if points < 2:
        raise ValueError("points must be at least 2")
    if log_spacing:
        ws = np.logspace(np.log10(w_min), np.log10(w_max), points)
    else:
        ws = np.linspace(w_min, w_max, points)
    return [float(w) for w in ws]


def _schemes(params: SystemParams, fit: SigmoidFit, cfg: PenaltyConfig):
    """The penalty solver's report, then the oracle, equal-split,
    fixed-placement and DF points (None where infeasible)."""
    og = GridSpec(ORACLE_GRID, ORACLE_GRID, cfg.alpha_floor)
    lg = GridSpec(LINE_GRID, LINE_GRID, cfg.alpha_floor)
    report = run(params, fit, cfg)
    return (
        report,
        oracle_search(params, fit, og),
        equal_bandwidth_search(params, fit, lg),
        fixed_placement_search(params, fit, lg),
        df_search(params, og),
    )


def compute_sweep(
    params: SystemParams, fit: SigmoidFit, cfg: PenaltyConfig, w_values
) -> list[SweepRow]:
    """Evaluate all five schemes at each bandwidth, one row per W."""
    rows = []
    for w in w_values:
        report, oracle, equal, fixed, df = _schemes(dataclasses.replace(params, W=w), fit, cfg)
        best = report.best
        rows.append(
            SweepRow(
                W=w,
                eta_penalty=best.eta if best else None,
                eta_oracle=oracle.eta if oracle else None,
                eta_equal_bw=equal.eta if equal else None,
                eta_fixed_place=fixed.eta if fixed else None,
                eta_df=df.eta,
                alpha_br_opt=best.alpha_br if best else None,
                d_br_opt=best.d_br if best else None,
                zeta=report.zeta if best else None,
                status_penalty=report.status,
                status_oracle="ok" if oracle else "infeasible",
                status_equal_bw="ok" if equal else "infeasible",
                status_fixed_place="ok" if fixed else "infeasible",
                status_df="ok",
            )
        )
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_FIELDS)
        for row in rows:
            writer.writerow([_cell(getattr(row, name)) for name in SWEEP_FIELDS])


def read_sweep_csv(path: str) -> list[SweepRow]:
    """Parse a sweep CSV back into rows; exact inverse of write_sweep_csv.
    A wrong header, a row without one field per column, or a cell that is
    not a finite number where one belongs (W always, a rate or decision
    unless empty) raises ConfigError naming the line, as does a file that
    is not UTF-8."""
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != SWEEP_FIELDS:
            raise ConfigError(f"{path}: unexpected CSV header {header!r}")
        rows = []
        for record in reader:
            where = f"{path}:{reader.line_num}"
            if len(record) != len(SWEEP_FIELDS):
                raise ConfigError(f"{where}: expected {len(SWEEP_FIELDS)} fields, got {len(record)}")
            kwargs = {}
            for name, text in zip(SWEEP_FIELDS, record):
                if name.startswith("status"):
                    kwargs[name] = text
                elif text == "" and name != "W":
                    kwargs[name] = None
                else:
                    try:
                        kwargs[name] = float(text)
                        if not math.isfinite(kwargs[name]):
                            raise ValueError
                    except ValueError:
                        raise ConfigError(f"{where}: invalid number {text!r} for {name!r}") from None
            rows.append(SweepRow(**kwargs))
    return rows


def format_compare(params: SystemParams, fit: SigmoidFit, cfg: PenaltyConfig) -> str:
    """Single-bandwidth comparison of all schemes, fixed-format table."""
    report, oracle, equal, fixed, df = _schemes(params, fit, cfg)
    names = ("oracle", "penalty", "equal_bw", "fixed_place", "df")
    lines = [f"W={params.W!r} Hz"]
    lines.append(f"{'scheme':<12} {'eta_bps':>14} {'d_br':>10} {'alpha_br':>10}")
    for name, pt in zip(names, (oracle, report.best, equal, fixed, df)):
        if pt is None:
            lines.append(f"{name:<12} {'infeasible':>14} {'-':>10} {'-':>10}")
        else:
            lines.append(
                f"{name:<12} {pt.eta:>14.6e} {pt.d_br:>10.4f} {pt.alpha_br:>10.6f}"
            )
    return "\n".join(lines) + "\n"


def _load(args) -> tuple[SystemParams, SigmoidFit, PenaltyConfig]:
    if getattr(args, "config", None):
        params, fit, cfg = load_config(args.config)
    else:
        params, fit, cfg = SystemParams(), SigmoidFit(), PenaltyConfig()
    if getattr(args, "W", None) is not None:
        try:
            params = dataclasses.replace(params, W=args.W)
        except ValueError as exc:
            raise ConfigError(f"--W: {exc}") from None
    return params, fit, cfg


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with usage errors exiting EXIT_USAGE instead of 2;
    subparsers take the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="semrelay",
        description="Joint relay placement and bandwidth allocation for a semantic relay link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the penalty solver")
    p_solve.add_argument("--config", help="path to key=value config file")
    p_solve.add_argument("--W", type=float, help="total bandwidth override, Hz")

    p_sweep = sub.add_parser("sweep", help="evaluate all schemes over a bandwidth range")
    p_sweep.add_argument("--config", help="path to key=value config file")
    p_sweep.add_argument("--w-min", type=float, required=True)
    p_sweep.add_argument("--w-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    spacing = p_sweep.add_mutually_exclusive_group()
    spacing.add_argument("--log", dest="log", action="store_true", default=True)
    spacing.add_argument("--linear", dest="log", action="store_false")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_oracle = sub.add_parser("oracle", help="exhaustive grid search")
    p_oracle.add_argument("--config", help="path to key=value config file")
    p_oracle.add_argument("--grid", type=int, default=ORACLE_GRID, help="points per axis")

    p_compare = sub.add_parser("compare", help="all schemes at one bandwidth")
    p_compare.add_argument("--config", help="path to key=value config file")
    p_compare.add_argument("--W", type=float, help="total bandwidth override, Hz")

    args = parser.parse_args(argv)
    try:
        params, fit, cfg = _load(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "solve":
        report = run(params, fit, cfg)
        if report.status == "infeasible":
            if report.outer_iters == 0:  # the exact feasibility test fired
                print("status: infeasible (no placement and split meets the similarity floor)")
            else:
                print("status: infeasible (both blocks are infeasible at the start point; "
                      "a feasible point may exist)")
            return EXIT_INFEASIBLE
        pt = report.best
        print(f"status: {report.status}")
        print(f"eta_bps: {pt.eta!r}")
        print(f"d_br_m: {pt.d_br!r}")
        print(f"d_ru_m: {pt.d_ru!r}")
        print(f"alpha_br: {pt.alpha_br!r}")
        print(f"alpha_ru: {pt.alpha_ru!r}")
        print(f"gamma_br_db: {pt.gamma_br_db!r}")
        print(f"zeta: {report.zeta!r}")
        print(f"outer_iters: {report.outer_iters}")
        print(f"inner_iters: {report.inner_iters}")
        print(f"max_iter_blocks: {report.max_iter_blocks}")
        return EXIT_OK if report.status == "converged" else EXIT_ITERATION_CAP

    if args.command == "sweep":
        try:
            ws = sweep_bandwidths(args.w_min, args.w_max, args.points, args.log)
            # Fail on an output path that cannot be written before any
            # solve; this creates the file empty when it is missing.
            open(args.out, "a", encoding="utf-8").close()
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        rows = compute_sweep(params, fit, cfg, ws)
        write_sweep_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
        return EXIT_OK

    if args.command == "oracle":
        try:
            grid = GridSpec(args.grid, args.grid, cfg.alpha_floor)
        except ValueError as exc:
            print(f"error: --grid: {exc}", file=sys.stderr)
            return EXIT_USAGE
        pt = oracle_search(params, fit, grid)
        if pt is None:
            print("status: infeasible")
            return EXIT_INFEASIBLE
        print("status: ok")
        print(f"eta_bps: {pt.eta!r}")
        print(f"d_br_m: {pt.d_br!r}")
        print(f"alpha_br: {pt.alpha_br!r}")
        print(f"gamma_br_db: {pt.gamma_br_db!r}")
        return EXIT_OK

    if args.command == "compare":
        sys.stdout.write(format_compare(params, fit, cfg))
        return EXIT_OK

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
