"""Command-line interface.

Subcommands: simulate, detect, estimate, price-forward, price-strip,
study-estimation, study-pricing.  Exit codes: 0 success, 1 computation or
input error (one-line diagnostic on stderr), 2 usage error.  Data goes to
stdout, diagnostics to stderr; ``--json`` switches machine-readable output.

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
from typing import List, Optional

import numpy as np

from . import config as cfgmod
from .detect import PLAIN, SIGN_FILTERED, DetectionConfig, apply_min_gap, detect_jumps
from .estimate import estimate_spikes
from .experiments import (
    PricingStudyConfig,
    StudyConfig,
    pricing_rows_to_csv,
    resolve_workers,
    run_estimation_study,
    run_pricing_study,
    study_rows_to_csv,
    study_summary,
)
from .ingest import DEDUP_KEEP_FIRST, DEDUP_REJECT, GAP_FFILL1, GAP_REJECT
from .ingest import IngestError, IngestReport, IngestRules, load_spot_csv
from .model import GridSpec, TwoFactorDynamics
from .pricing import (
    StripOptionSpec,
    forward_spike_arith,
    forward_spike_delivery,
    forward_spike_log,
    price_strip_mc,
)
from .simulate import make_rng, simulate_spot

__all__ = ["IngestRules", "IngestReport", "IngestError", "load_spot_csv", "dispatch", "main"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _write_columns(path: str, header: List[str], *columns) -> None:
    """CSV of equal-length float columns; each value is written as its repr."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(column, dtype=float).tolist() for column in columns)))


def _cmd_simulate(args) -> int:
    cfg = cfgmod.load_config(args.config)
    model = cfgmod.build_model(cfg)
    grid = cfgmod.build_grid(cfg)
    sim = simulate_spot(model, grid, make_rng(args.seed))
    columns = grid.times(), sim.observed.values, sim.continuous.values, sim.spike.values
    _write_columns(args.out, ["t", "X", "Xc", "Z"], *columns)
    truth_path = args.truth_out or args.out + ".truth.csv"
    _write_columns(truth_path, ["t_jump", "size"], [rec.time for rec in sim.truth], [rec.size for rec in sim.truth])
    if args.json:
        print(json.dumps({"out": args.out, "truth": truth_path, "n": grid.n, "jumps": len(sim.truth)}))
    else:
        print(f"wrote {grid.n + 1} observations to {args.out} ({len(sim.truth)} jumps, truth in {truth_path})")
    return 0


def _ingest_rules(args) -> IngestRules:
    gap = GAP_FFILL1 if args.gap_policy == "ffill1" else GAP_REJECT
    dedup = DEDUP_KEEP_FIRST if args.dedup_policy == "keep-first" else DEDUP_REJECT
    return IngestRules(args.time_col, args.price_col, args.step, gap_policy=gap, dedup_policy=dedup)


def _detect_with_flags(path, args):
    config = DetectionConfig(constant=args.C, exponent=args.varpi, mpv_order=args.mpv_order, mode=args.mode)
    report = detect_jumps(path, config)
    if args.min_gap > 1:
        report = apply_min_gap(report, args.min_gap)
    return report


def _cmd_detect(args) -> int:
    path, ingest = load_spot_csv(args.infile, _ingest_rules(args))
    report = _detect_with_flags(path, args)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "increment"])
            for idx, inc in zip(report.indices, report.increments):
                writer.writerow([int(idx), repr(float(inc))])
    if args.json:
        print(
            json.dumps(
                {
                    "count": report.count,
                    "sigma_hat": report.sigma_hat,
                    "threshold_abs": report.threshold_abs,
                    "mode": report.mode,
                    "indices": [int(i) for i in report.indices],
                    "ingest": {"n": ingest.n, "filled": len(ingest.filled_timestamps)},
                }
            )
        )
    else:
        print(f"count: {report.count}")
        print(f"sigma_hat: {report.sigma_hat:.6g}")
        print(f"threshold_abs: {report.threshold_abs:.6g}")
        print(f"mode: {report.mode}")
        print("indices: " + " ".join(str(int(i)) for i in report.indices))
    return 0


def _cmd_estimate(args) -> int:
    if args.horizon_years is not None and not 0 < args.horizon_years < float("inf"):
        raise ValueError(f"--horizon-years must be positive and finite, got {args.horizon_years!r}")
    path, ingest = load_spot_csv(args.infile, _ingest_rules(args))
    report = _detect_with_flags(path, args)
    est = estimate_spikes(path, report)
    years = args.horizon_years if args.horizon_years is not None else ingest.span_years

    payload = {
        "lambda_hat": est.lambda_hat,
        "lambda_ci": list(est.lambda_ci),
        "beta_hat": est.beta_hat,
        "slope_hat": est.slope_hat,
        "count": report.count,
        "sigma_hat": report.sigma_hat,
        "threshold_abs": report.threshold_abs,
        "mode": report.mode,
        "moments": {str(m): v for m, v in est.moment_estimates.items()},
        "flags": {
            "undefined": est.flags.undefined,
            "floored": est.flags.floored,
            "boundary_drops": est.flags.boundary_drops,
        },
    }
    if est.diagnostics is not None:
        payload["diagnostics"] = {
            "bias_term": est.diagnostics.bias_term,
            "error_components": list(est.diagnostics.error_components),
            "relative_error_bound": est.diagnostics.relative_error_bound,
        }
    if years:
        payload["per_year"] = {"lambda_hat": est.lambda_hat / years, "beta_hat": est.beta_hat / years}

    if args.json:
        print(json.dumps(payload))
    else:
        print(f"lambda_hat: {est.lambda_hat:.6g}  (95% CI {est.lambda_ci[0]:.6g} .. {est.lambda_ci[1]:.6g})")
        print(f"beta_hat: {est.beta_hat:.6g}")
        print(f"slope_hat: {est.slope_hat:.6g}")
        for m, value in est.moment_estimates.items():
            print(f"moment[{m}]: {'undefined' if value is None else f'{value:.6g}'}")
        if est.diagnostics is not None:
            v = est.diagnostics.error_components
            print(f"bias_term: {est.diagnostics.bias_term:.4g}")
            print(f"error_components: {v[0]:.4g} {v[1]:.4g} {v[2]:.4g} {v[3]:.4g}")
            print(f"relative_error_bound: {est.diagnostics.relative_error_bound:.4g}")
        flags = []
        if est.flags.undefined:
            flags.append("undefined")
        if est.flags.floored:
            flags.append("floored")
        if est.flags.boundary_drops:
            flags.append(f"boundary_drops={est.flags.boundary_drops}")
        print("flags: " + (", ".join(flags) if flags else "none"))
        if years:
            print(f"per-year: lambda_hat {est.lambda_hat / years:.6g}, beta_hat {est.beta_hat / years:.6g}")
    return 0


def _cmd_price_forward(args) -> int:
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
    if args.json:
        print(json.dumps({"kind": kind, "value": value, "t": args.t, "T": args.T, "theta": args.theta}))
    else:
        print(f"spike forward correction ({kind}): {value!r}")
    return 0


def _exercise_times(spec_text: str, grid: GridSpec) -> np.ndarray:
    if spec_text == "hourly":
        return grid.times()[1:]
    if spec_text.startswith("csv:"):
        times = np.loadtxt(spec_text[4:], ndmin=1)
        return np.asarray(times, dtype=float)
    raise ValueError(f"unknown exercise spec {spec_text!r}; use 'hourly' or 'csv:<file>'")


def _two_factor(cfg, command: str) -> TwoFactorDynamics:
    continuous = cfgmod.build_continuous(cfg)
    if not isinstance(continuous, TwoFactorDynamics):
        raise ValueError(f"{command} needs cont.kind = twofactor in the config")
    return continuous


def _cmd_price_strip(args) -> int:
    cfg = cfgmod.load_config(args.config)
    continuous = _two_factor(cfg, "price-strip")
    grid = cfgmod.build_grid(cfg)
    spikes = None if args.no_spikes else cfgmod.build_spike_params(cfg)
    spec = StripOptionSpec(
        exercise_times=_exercise_times(args.exercises, grid),
        strike=args.strike,
        num_sims=args.sims,
        seed=args.seed,
    )
    price = price_strip_mc(
        continuous.params, continuous.curve, spikes, grid, spec, antithetic=args.antithetic
    )
    print(
        json.dumps(
            {
                "estimate": price.estimate,
                "ci95": list(price.ci95),
                "stderr": price.stderr,
                "sims": price.num_sims,
            }
        )
    )
    return 0


def _cmd_study_estimation(args) -> int:
    cfg = cfgmod.load_config(args.config)
    modes = tuple(args.modes.split(",")) if args.modes else (PLAIN, SIGN_FILTERED)
    for mode in modes:
        if mode not in (PLAIN, SIGN_FILTERED):
            raise ValueError(f"unknown mode {mode!r}")
    study = StudyConfig(
        pairs=tuple(cfgmod.build_study_pairs(cfg)),
        replications=args.reps,
        grid=cfgmod.build_grid(cfg),
        detection=DetectionConfig(constant=args.C, exponent=args.varpi, mpv_order=args.mpv_order),
        law=cfgmod.build_jump_law(cfg),
        continuous=cfgmod.build_continuous(cfg),
        master_seed=args.seed,
        modes=modes,
    )
    rows = run_estimation_study(study, workers=resolve_workers(args.workers))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "estimation_study.csv")
    json_path = os.path.join(args.out, "estimation_study.json")
    study_rows_to_csv(rows, csv_path)
    with open(json_path, "w") as handle:
        json.dump(study_summary(rows), handle, indent=2)
    if args.json:
        print(json.dumps(study_summary(rows)))
    else:
        print(f"wrote {csv_path} and {json_path} ({len(rows)} rows)")
    return 0


def _cmd_study_pricing(args) -> int:
    cfg = cfgmod.load_config(args.config)
    continuous = _two_factor(cfg, "study-pricing")
    grid = cfgmod.build_grid(cfg)
    strikes = tuple(float(s) for s in args.strikes.split(","))
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
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "pricing_study.csv")
    pricing_rows_to_csv(rows, csv_path)
    summary = [
        {
            "strike": row.strike,
            "without": {"estimate": row.without_spikes.estimate, "ci95": list(row.without_spikes.ci95)},
            "with": {"estimate": row.with_spikes.estimate, "ci95": list(row.with_spikes.ci95)},
            "premium": row.spike_premium,
            "premium_ci95": list(row.premium_ci95),
        }
        for row in rows
    ]
    json_path = os.path.join(args.out, "pricing_study.json")
    with open(json_path, "w") as handle:
        json.dump(summary, handle, indent=2)
    if args.json:
        print(json.dumps(summary))
    else:
        print(f"wrote {csv_path} and {json_path} ({len(rows)} strikes)")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _add_ingest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", required=True, help="input CSV")
    parser.add_argument("--time-col", default=None, help="timestamp column (default: first)")
    parser.add_argument("--price-col", default=None, help="price column (default: second)")
    parser.add_argument("--step", type=float, default=None, help="expected time step (default: inferred)")
    parser.add_argument("--gap-policy", choices=["reject", "ffill1"], default="reject")
    parser.add_argument("--dedup-policy", choices=["reject", "keep-first"], default="reject")


def _add_detection_flags(parser: argparse.ArgumentParser, include_mode: bool = True) -> None:
    if include_mode:
        parser.add_argument("--mode", choices=(PLAIN, SIGN_FILTERED), default=SIGN_FILTERED)
        parser.add_argument(
            "--min-gap", type=int, default=0, help="post-filter: minimum index gap between flags (off by default)"
        )
    parser.add_argument("--C", type=float, default=5.0, help="threshold constant (default 5)")
    parser.add_argument("--varpi", type=float, default=0.01, help="threshold exponent (default 0.01)")
    parser.add_argument("--mpv-order", type=int, default=20, help="multipower order (default 20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelab",
        description="Spiky electricity-price simulation, estimation and pricing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a spot path to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None, help="jump sidecar (default <out>.truth.csv)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="detect jump increments in a series")
    _add_ingest_flags(p)
    _add_detection_flags(p)
    p.add_argument("--out", default=None, help="write flagged increments to CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("estimate", help="estimate spike intensity and reversion")
    _add_ingest_flags(p)
    _add_detection_flags(p)
    p.add_argument("--horizon-years", type=float, default=None, help="span in years for per-year rates")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("price-forward", help="spike correction to a forward price")
    p.add_argument("--config", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--theta", type=float, default=None, help="delivery-period length")
    p.add_argument("--log-model", action="store_true", help="multiplicative (log-price) model")
    p.add_argument("--z-now", type=float, default=0.0, help="current spike level")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_price_forward)

    p = sub.add_parser("price-strip", help="Monte Carlo strip-of-calls price")
    p.add_argument("--config", required=True)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--exercises", default="hourly", help="hourly | csv:<file>")
    p.add_argument("--sims", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-spikes", action="store_true")
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--json", action="store_true")  # output is already JSON
    p.set_defaults(func=_cmd_price_strip)

    p = sub.add_parser("study-estimation", help="estimator performance study")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--modes", default=None, help="comma-separated: plain,signfiltered")
    p.add_argument("--workers", type=int, default=None)
    _add_detection_flags(p, include_mode=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_study_estimation)

    p = sub.add_parser("study-pricing", help="strip-option study with/without spikes")
    p.add_argument("--config", required=True)
    p.add_argument("--strikes", default="100,200,300")
    p.add_argument("--exercises", default="hourly")
    p.add_argument("--sims", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_study_pricing)

    return parser


def dispatch(argv: Optional[List[str]] = None) -> int:
    """Route argv to a subcommand; return the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"spikelab: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
