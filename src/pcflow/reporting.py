"""File outputs: CSV time series, curve snapshots, JSON reports, SVG plots.

All writers are deterministic: fixed float formatting (17 significant
digits), sorted JSON keys, and a config-hash provenance comment in every
file.
"""

from __future__ import annotations

import json
from pathlib import Path

from .curves import CurveGeometry, SupportCurve
from .errors import ConfigInvalid
from .noncollapse import NonCollapseReport


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_timeseries_csv(path, rows: list[dict], cfg_hash: str) -> None:
    cols = ["t", "dt", "area", "length", "isoperimetric",
            "kappa_min", "kappa_max", "mu"]
    lines = [f"# config_hash={cfg_hash}", ",".join(cols)]
    for row in rows:
        lines.append(",".join(
            "" if row.get(c) is None else fmt(row[c]) for c in cols
        ))
    Path(path).write_text("\n".join(lines) + "\n")


def write_support_curve_csv(path, curve: SupportCurve, g: CurveGeometry,
                            cfg_hash: str) -> None:
    """One row per grid angle; ``g`` is the embedding of ``curve``."""
    theta = curve.thetas
    lines = [f"# config_hash={cfg_hash}", "theta,x,y,kappa,h"]
    for i in range(curve.n):
        lines.append(",".join(fmt(v) for v in (
            theta[i], g.x[i, 0], g.x[i, 1], curve.kappa[i], curve.h[i])))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict, cfg_hash: str) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_mu0_csv(path, rows: list[dict], cfg_hash: str) -> None:
    lines = [
        f"# config_hash={cfg_hash}",
        "# values are EMPIRICAL observations of the discrete runs, not proved thresholds",
        "p,family,param,mu0_empirical,pass",
    ]
    for r in rows:
        lines.append(",".join([
            fmt(r["p"]), str(r["family"]), fmt(r["param"]),
            fmt(r["mu0_empirical"]), str(r["pass"]),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_snapshot_svg(g: CurveGeometry, path,
                       report: NonCollapseReport | None = None,
                       cfg_hash: str = "") -> None:
    """Standalone SVG of the curve; optionally the inscribed circle at the
    mu-argmax contact point.  Byte output is deterministic for fixed input."""
    if g is None or g.m == 0:
        raise ConfigInvalid("cannot plot empty geometry")
    pts = g.x
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    pad = 0.1 * max(float(span[0]), float(span[1]))
    x0, y0 = lo[0] - pad, lo[1] - pad
    w, h = span[0] + 2 * pad, span[1] + 2 * pad

    # SVG y axis points down; flip about the viewBox center line.
    def sy(y: float) -> float:
        return (y0 + h) - (y - y0)

    d = "M " + " L ".join(f"{fmt(p[0])},{fmt(sy(p[1]))}" for p in pts) + " Z"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- config_hash={cfg_hash} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(x0)} {fmt(y0)} {fmt(w)} {fmt(h)}">',
        f'<path d="{d}" fill="none" stroke="black" stroke-width="{fmt(0.01 * max(w, h))}"/>',
    ]
    if report is not None:
        i = report.argmax.i
        r = 1.0 / float(report.z_sup[i])
        center = g.x[i] - r * g.normal[i]
        parts.append(
            f'<circle cx="{fmt(center[0])}" cy="{fmt(sy(center[1]))}" r="{fmt(r)}" '
            f'fill="none" stroke="red" stroke-width="{fmt(0.005 * max(w, h))}"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
