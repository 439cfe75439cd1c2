"""Command-line entry point.

Subcommands: ``simulate``, ``verify``, ``noncollapse``, ``sweep-mu0``.
Exit codes: 0 success, 1 config error, 2 runtime failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import identities
from .config import ExperimentConfig, config_hash, parse_config
from .curves import construct_curve, embed_support, isoperimetric_ratio
from .errors import ConfigInvalid, PcflowError
from .flow import FlowConfig, estimated_extinction_time, run_flow
from .noncollapse import mu_report
from .reporting import (
    write_json,
    write_mu0_csv,
    write_snapshot_svg,
    write_support_curve_csv,
    write_timeseries_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _load(args) -> tuple[ExperimentConfig, Path, str]:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"config is not UTF-8 text: {exc}") from exc
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    outdir = Path(args.out or cfg.outputs or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    return cfg, outdir, config_hash(cfg)


def cmd_simulate(cfg: ExperimentConfig, outdir: Path, cfg_hash: str) -> int:
    curve = construct_curve(cfg.initial_curve, cfg.n)
    t_end = None
    if cfg.horizon is not None:
        key, val = next(iter(cfg.horizon.items()))
        t_end = float(val)
        if key == "until":
            try:
                t_end *= estimated_extinction_time(curve, cfg.p)
            except ConfigInvalid as exc:
                raise ConfigInvalid(f"horizon.until: {exc}") from exc
    fc = FlowConfig(p=cfg.p, sigma=cfg.sigma, t_end=t_end,
                    monitor_every=cfg.monitor_every)
    traj = run_flow(curve, fc)
    rows: list[dict] = []
    for k, state in enumerate(traj.snapshots):
        c = state.curve
        g = embed_support(c)
        rep = mu_report(g)
        rows.append({
            "t": state.t, "dt": state.last_dt, "area": g.area,
            "length": g.length, "isoperimetric": isoperimetric_ratio(g),
            "kappa_min": float(np.min(c.kappa)), "kappa_max": float(np.max(c.kappa)),
            "mu": rep.mu,
        })
        write_support_curve_csv(outdir / f"curve_{k}.csv", c, g, cfg_hash)
        write_snapshot_svg(g, outdir / f"curve_{k}.svg", rep, cfg_hash)
        write_json(outdir / f"noncollapse_{k}.json", rep.to_dict(), cfg_hash)
    final = traj.snapshots[-1]
    write_timeseries_csv(outdir / "timeseries.csv", rows, cfg_hash)
    write_json(outdir / "summary.json", {
        "terminal_reason": traj.terminal_reason,
        "aborted": traj.aborted,
        "t_final": final.t,
        "steps": final.steps,
        "mu_final": rows[-1]["mu"],
        "dt_min": traj.dt_min,
        "dt_max": traj.dt_max,
        "convexity_margin": traj.convexity_margin,
    }, cfg_hash)
    if traj.aborted:
        raise PcflowError(f"flow aborted: {traj.terminal_reason}")
    return EXIT_OK


def cmd_noncollapse(cfg: ExperimentConfig, outdir: Path, cfg_hash: str) -> int:
    curve = construct_curve(cfg.initial_curve, cfg.n)
    g = embed_support(curve)
    rep = mu_report(g, include_oracle=True)
    write_json(outdir / "noncollapse.json", rep.to_dict(), cfg_hash)
    write_snapshot_svg(g, outdir / "curve.svg", rep, cfg_hash)
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, outdir: Path, cfg_hash: str,
               inject_sign_error: bool = False) -> int:
    suite = identities.verify_suite(cfg.initial_curve, cfg.p, cfg.n, cfg.seed,
                                    sign_error=inject_sign_error)
    write_json(outdir / "verify.json", suite, cfg_hash)
    return EXIT_OK if suite["pass"] else EXIT_VERIFY


def cmd_sweep_mu0(cfg: ExperimentConfig, outdir: Path, cfg_hash: str) -> int:
    if cfg.sweep is None:
        raise ConfigInvalid("sweep: section required for sweep-mu0")
    # parse_config fills the section's keys, which are mu0_sweep's arguments
    rows = identities.mu0_sweep(**cfg.sweep, sigma=cfg.sigma)
    write_mu0_csv(outdir / "mu0_sweep.csv", rows, cfg_hash)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pcflow",
        description="Power curvature flow lab: simulation, non-collapsing "
                    "monitoring, and identity verification.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("simulate", "verify", "noncollapse", "sweep-mu0"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        if name == "verify":
            sp.add_argument("--inject-sign-error", action="store_true",
                            help="harness self-test: run the flow with the "
                                 "wrong sign and expect failure")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, outdir, cfg_hash = _load(args)
    except (ConfigInvalid, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir, cfg_hash)
        if args.command == "noncollapse":
            return cmd_noncollapse(cfg, outdir, cfg_hash)
        if args.command == "verify":
            return cmd_verify(cfg, outdir, cfg_hash,
                              inject_sign_error=args.inject_sign_error)
        return cmd_sweep_mu0(cfg, outdir, cfg_hash)   # argparse takes no other
    except ConfigInvalid as exc:
        # Includes a non-convex curve spec (NonConvexSpec); convexity lost
        # while the flow runs is a runtime failure.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PcflowError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
