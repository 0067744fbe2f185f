"""Command-line interface.

Subcommands: simulate, detect, estimate, price-forward, price-strip,
study-estimation, study-pricing.  Exit codes: 0 success, 1 computation or
input error (one-line diagnostic on stderr), 2 usage error.  Data goes to
stdout, diagnostics to stderr; ``--json`` switches machine-readable output.

The contract: output under ``--json`` is strict JSON, with no ``NaN`` or
``Infinity`` token, and every bad input fails in one ``spikelab:`` line.
Each subcommand returns its record and its text lines; ``dispatch`` alone
prints them, and ``_json`` alone writes JSON, for stdout and the study files.

``detect`` and ``estimate`` read their series with ``ingest.load_spot_csv``;
floats are written with ``repr`` so a simulate -> write -> load round trip is
bit-exact.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from .detect import MODES, DetectionConfig, detect_jumps
from .estimate import estimate_spikes
from .experiments import (
    PricingStudyConfig,
    StudyConfig,
    pricing_rows_to_csv,
    pricing_summary,
    run_estimation_study,
    run_pricing_study,
    study_rows_to_csv,
    study_summary,
)
from .ingest import DEDUP_KEEP_FIRST, DEDUP_REJECT, GAP_FFILL1, GAP_REJECT
from .ingest import IngestError, IngestReport, IngestRules, load_spot_csv
from .model import GridSpec, TwoFactorDynamics, finite, positive
from .pricing import forward_spike_arith, forward_spike_delivery, forward_spike_log, price_strip_mc
from .simulate import make_rng, simulate_spot

__all__ = ["IngestRules", "IngestReport", "IngestError", "load_spot_csv", "dispatch", "main"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _write_columns(path: str, header: List[str], *columns) -> None:
    """CSV of equal-length columns; each value is written as the repr of its int or float."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(column).tolist() for column in columns)))


def _cmd_simulate(args):
    cfg = cfgmod.load_config(args.config)
    model = cfgmod.build_model(cfg)
    grid = cfgmod.build_grid(cfg)
    sim = simulate_spot(model, grid, make_rng(args.seed))
    columns = grid.times(), sim.observed.values, sim.continuous.values, sim.spike.values
    _write_columns(args.out, ["t", "X", "Xc", "Z"], *columns)
    truth_path = args.truth_out or args.out + ".truth.csv"
    _write_columns(truth_path, ["t_jump", "size"], *sim.truth.T)
    record = {"out": args.out, "truth": truth_path, "n": grid.n, "jumps": len(sim.truth)}
    return record, [f"wrote {grid.n + 1} observations to {args.out} ({len(sim.truth)} jumps, truth in {truth_path})"]


def _ingest_rules(args) -> IngestRules:
    return IngestRules(args.time_col, args.price_col, args.step, args.gap_policy, args.dedup_policy)


def _detect_with_flags(path, args):
    config = DetectionConfig(constant=args.C, exponent=args.varpi, mpv_order=args.mpv_order, mode=args.mode)
    return detect_jumps(path, config)


def _report_fields(report) -> dict:
    """The detection report's keys in the --json output of ``detect`` and ``estimate``."""
    return {
        "count": report.count,
        "sigma_hat": report.sigma_hat,
        "threshold_abs": report.threshold_abs,
        "mode": report.mode,
    }


def _cmd_detect(args):
    path, ingest = load_spot_csv(args.infile, _ingest_rules(args))
    report = _detect_with_flags(path, args)
    if args.out:
        _write_columns(args.out, ["index", "increment"], report.indices, report.increments)
    ingest_fields = {"n": ingest.n, "filled": len(ingest.filled_timestamps)}
    record = {**_report_fields(report), "indices": report.indices.tolist(), "ingest": ingest_fields}
    return record, [
        f"count: {report.count}",
        f"sigma_hat: {report.sigma_hat:.6g}",
        f"threshold_abs: {report.threshold_abs:.6g}",
        f"mode: {report.mode}",
        "indices: " + " ".join(str(int(i)) for i in report.indices),
    ]


def _cmd_estimate(args):
    if args.horizon_years is not None:
        positive("--horizon-years", args.horizon_years)
    path, ingest = load_spot_csv(args.infile, _ingest_rules(args))
    report = _detect_with_flags(path, args)
    est = estimate_spikes(path, report)
    years = args.horizon_years if args.horizon_years is not None else ingest.span_years

    record = {
        "lambda_hat": est.lambda_hat,
        "lambda_ci": list(est.lambda_ci),
        "beta_hat": est.beta_hat,
        "slope_hat": est.slope_hat,
        **_report_fields(report),
        "moments": {str(m): v for m, v in est.moment_estimates.items()},
        "flags": asdict(est.flags),
    }
    if est.diagnostics is not None:
        record["diagnostics"] = asdict(est.diagnostics)

    lines = [
        f"lambda_hat: {est.lambda_hat:.6g}  (95% CI {est.lambda_ci[0]:.6g} .. {est.lambda_ci[1]:.6g})",
        f"beta_hat: {est.beta_hat:.6g}",
        f"slope_hat: {est.slope_hat:.6g}",
    ]
    lines += [f"moment[{m}]: {'undefined' if v is None else f'{v:.6g}'}" for m, v in est.moment_estimates.items()]
    if est.diagnostics is not None:
        v = est.diagnostics.error_components
        lines += [
            f"bias_term: {est.diagnostics.bias_term:.4g}",
            f"error_components: {v[0]:.4g} {v[1]:.4g} {v[2]:.4g} {v[3]:.4g}",
            f"relative_error_bound: {est.diagnostics.relative_error_bound:.4g}",
        ]
    flags = [name for name in ("undefined", "floored") if getattr(est.flags, name)]
    flags += [f"boundary_drops={est.flags.boundary_drops}"] if est.flags.boundary_drops else []
    lines.append("flags: " + (", ".join(flags) if flags else "none"))
    if years:
        record["per_year"] = per_year = {
            name: finite(f"per-year {name} over {years!r} years", getattr(est, name) / years)
            for name in ("lambda_hat", "beta_hat")
        }
        lines.append("per-year: lambda_hat {lambda_hat:.6g}, beta_hat {beta_hat:.6g}".format(**per_year))
    return record, lines


def _cmd_price_forward(args):
    cfg = cfgmod.load_config(args.config)
    spikes = cfgmod.build_spike_params(cfg)
    if args.log_model:
        if args.theta is not None:
            raise ValueError("delivery-period averaging is only available for the arithmetic model")
        value = forward_spike_log(args.z_now, spikes, args.t, args.T)
        kind = "log"
    elif args.theta is not None:
        value = forward_spike_delivery(args.z_now, spikes, args.t, args.T, args.theta)
        kind = "delivery"
    else:
        value = forward_spike_arith(args.z_now, spikes, args.t, args.T)
        kind = "instant"
    record = {"kind": kind, "value": value, "t": args.t, "T": args.T, "theta": args.theta}
    return record, [f"spike forward correction ({kind}): {value!r}"]


def _exercise_times(spec_text: str, grid: GridSpec) -> np.ndarray:
    if spec_text == "hourly":
        return grid.times()[1:]
    if spec_text.startswith("csv:"):
        return cfgmod.load_floats(spec_text[4:])
    raise ValueError(f"unknown exercise spec {spec_text!r}; use 'hourly' or 'csv:<file>'")


def _two_factor(cfg, command: str) -> TwoFactorDynamics:
    continuous = cfgmod.build_continuous(cfg)
    if not isinstance(continuous, TwoFactorDynamics):
        raise ValueError(f"{command} needs cont.kind = twofactor in the config")
    return continuous


def _cmd_price_strip(args):
    cfg = cfgmod.load_config(args.config)
    continuous = _two_factor(cfg, "price-strip")
    grid = cfgmod.build_grid(cfg)
    spikes = None if args.no_spikes else cfgmod.build_spike_params(cfg)
    times, rng = _exercise_times(args.exercises, grid), make_rng(args.seed)
    price = price_strip_mc(
        continuous.params, continuous.curve, spikes, grid, times, args.strike, args.sims, rng, args.antithetic
    )
    record = {"estimate": price.estimate, "ci95": list(price.ci95), "stderr": price.stderr, "sims": price.num_sims}
    return record, None  # JSON with or without --json


def _write_study(args, stem: str, rows, write_csv, summary, noun: str):
    """Write <out>/<stem>.csv and <out>/<stem>.json; return the summary and the line naming the two files.

    The JSON text is built first, so a summary it rejects leaves neither file.
    """
    text = _json(summary, indent=2)
    os.makedirs(args.out, exist_ok=True)
    csv_path, json_path = (os.path.join(args.out, f"{stem}.{ext}") for ext in ("csv", "json"))
    write_csv(rows, csv_path)
    with open(json_path, "w") as handle:
        handle.write(text)
    return summary, [f"wrote {csv_path} and {json_path} ({len(rows)} {noun})"]


def _cmd_study_estimation(args):
    cfg = cfgmod.load_config(args.config)
    modes = tuple(args.modes.split(",")) if args.modes is not None else StudyConfig.modes
    study = StudyConfig(
        pairs=cfg["study.pairs"],
        replications=args.reps,
        grid=cfgmod.build_grid(cfg),
        detection=DetectionConfig(constant=args.C, exponent=args.varpi, mpv_order=args.mpv_order),
        law=cfgmod.build_jump_law(cfg),
        continuous=cfgmod.build_continuous(cfg),
        master_seed=args.seed,
        modes=modes,
    )
    rows = run_estimation_study(study, workers=args.workers)
    return _write_study(args, "estimation_study", rows, study_rows_to_csv, study_summary(rows), "rows")


def _cmd_study_pricing(args):
    cfg = cfgmod.load_config(args.config)
    continuous = _two_factor(cfg, "study-pricing")
    grid = cfgmod.build_grid(cfg)
    try:
        strikes = tuple(float(s) for s in args.strikes.split(","))
    except ValueError:
        raise ValueError(f"--strikes must be comma-separated numbers, got {args.strikes!r}") from None
    study = PricingStudyConfig(
        two_factor=continuous.params,
        curve=continuous.curve,
        spikes=cfgmod.build_spike_params(cfg),
        grid=grid,
        exercise_times=_exercise_times(args.exercises, grid),
        strikes=strikes,
        num_sims=args.sims,
        master_seed=args.seed,
        antithetic=args.antithetic,
    )
    rows = run_pricing_study(study)
    return _write_study(args, "pricing_study", rows, pricing_rows_to_csv, pricing_summary(rows), "strikes")


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _add_ingest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", required=True, help="input CSV")
    parser.add_argument("--time-col", default=None, help="timestamp column (default: first)")
    parser.add_argument("--price-col", default=None, help="price column (default: second)")
    parser.add_argument("--step", type=float, default=None, help="expected time step (default: inferred)")
    parser.add_argument("--gap-policy", choices=(GAP_REJECT, GAP_FFILL1), default=GAP_REJECT)
    parser.add_argument("--dedup-policy", choices=(DEDUP_REJECT, DEDUP_KEEP_FIRST), default=DEDUP_REJECT)


def _add_detection_flags(parser: argparse.ArgumentParser, include_mode: bool = True) -> None:
    if include_mode:
        parser.add_argument("--mode", choices=MODES, default=DetectionConfig.mode)
    shown = "(default %(default)s)"
    parser.add_argument("--C", type=float, default=DetectionConfig.constant, help=f"threshold constant {shown}")
    parser.add_argument("--varpi", type=float, default=DetectionConfig.exponent, help=f"threshold exponent {shown}")
    parser.add_argument("--mpv-order", type=int, default=DetectionConfig.mpv_order, help=f"multipower order {shown}")


def _add_strip_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True)
    parser.add_argument("--exercises", default="hourly", help="hourly | csv:<file>")
    parser.add_argument("--sims", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--antithetic", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelab",
        description="Spiky electricity-price simulation, estimation and pricing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")  # price-strip's output is JSON either way

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("simulate", _cmd_simulate, "simulate a spot path to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None, help="jump sidecar (default <out>.truth.csv)")

    p = command("detect", _cmd_detect, "detect jump increments in a series")
    _add_ingest_flags(p)
    _add_detection_flags(p)
    p.add_argument("--out", default=None, help="write flagged increments to CSV")

    p = command("estimate", _cmd_estimate, "estimate spike intensity and reversion")
    _add_ingest_flags(p)
    _add_detection_flags(p)
    p.add_argument("--horizon-years", type=float, default=None, help="span in years for per-year rates")

    p = command("price-forward", _cmd_price_forward, "spike correction to a forward price")
    p.add_argument("--config", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--theta", type=float, default=None, help="delivery-period length")
    p.add_argument("--log-model", action="store_true", help="multiplicative (log-price) model")
    p.add_argument("--z-now", type=float, default=0.0, help="current spike level")

    p = command("price-strip", _cmd_price_strip, "Monte Carlo strip-of-calls price")
    _add_strip_flags(p)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--no-spikes", action="store_true")

    p = command("study-estimation", _cmd_study_estimation, "estimator performance study")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--modes", default=None, help="comma-separated: plain,signfiltered")
    p.add_argument("--workers", type=int, default=1)
    _add_detection_flags(p, include_mode=False)

    p = command("study-pricing", _cmd_study_pricing, "strip-option study with/without spikes")
    _add_strip_flags(p)
    p.add_argument("--strikes", default="100,200,300")
    p.add_argument("--out", required=True)

    return parser


def _json(record, indent: Optional[int] = None) -> str:
    """The CLI's one JSON writer: strict JSON, so a NaN or infinity raises, naming its key, instead of printing."""
    try:
        return json.dumps(record, allow_nan=False, indent=indent)
    except ValueError:  # the key is the chunk before the last ': ' ahead of the first non-finite number
        chunks = list(json.JSONEncoder(indent=indent).iterencode(record))
        at = next(k for k, chunk in enumerate(chunks) if chunk.endswith(("NaN", "Infinity")))
        key = next(chunks[k - 1] for k in range(at, 0, -1) if chunks[k] == ": ")
        raise ValueError(f"JSON value {key} must be finite, got {chunks[at].split()[-1].lstrip('[,')}") from None


def dispatch(argv: Optional[List[str]] = None) -> int:
    """Route argv to a subcommand, print its record or its text lines; return the process exit status.

    A subcommand returns (record, lines); lines is None when it prints JSON either way.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, lines = args.func(args)
        print(_json(record) if args.json or lines is None else "\n".join(lines))
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"spikelab: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
