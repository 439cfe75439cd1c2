"""File outputs: CSV time series, curve snapshots, JSON reports, SVG plots.

All writers are deterministic and stamp each file with the config hash.
JSON text is that of ``json.dumps(sort_keys=True, indent=2)`` (floats in
shortest round-trip repr); CSV and SVG floats are ``%.17g``.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .config import GRID_SIZES
from .curves import CurveGeometry, SupportCurve, gauss_frame
from .noncollapse import NonCollapseReport

_encode = json.JSONEncoder(sort_keys=True).encode
_FLAT = {type(None), bool, int, float}


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def to_json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for str-keyed data."""
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{_encode(k)}: {to_json(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = _records(obj, inner) or [to_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    return _encode(obj)


def _records(items, pad: str) -> list[str] | None:
    """Texts of flat records, dicts with one key set and None, bool, int or
    float values (no such value's text holds ", "), one C encode per column."""
    keys = items[0].keys() if items and isinstance(items[0], dict) else None
    if not keys or not all(isinstance(r, dict) and r.keys() == keys for r in items):
        return None
    names = sorted(keys)
    cols = [[r[k] for r in items] for k in names]
    if not all(set(map(type, c)) <= _FLAT for c in cols):
        return None
    template = "{" + ",".join(f"{pad}  " + _encode(k).replace("%", "%%") + ": %s"
                              for k in names) + pad + "}"
    return [template % row for row in zip(*(_encode(c)[1:-1].split(", ") for c in cols))]


def write_timeseries_csv(path, rows: list[dict], cfg_hash: str) -> None:
    cols = ["t", "dt", "area", "length", "isoperimetric",
            "kappa_min", "kappa_max", "mu"]
    lines = [f"# config_hash={cfg_hash}", ",".join(cols)]
    lines += [",".join(fmt(r[c]) for c in cols) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")


@functools.lru_cache(maxsize=GRID_SIZES)
def _curve_rows_template(n: int) -> str:
    """The rows of an n-point curve CSV as a format template: each row's
    theta as its %.17g text, then four %.17g fields (x, y, kappa, h)."""
    return "".join("%.17g,%%.17g,%%.17g,%%.17g,%%.17g\n" % t
                   for t in gauss_frame(n)[0].tolist())


def write_support_curve_csv(path, curve: SupportCurve, g: CurveGeometry,
                            cfg_hash: str) -> None:
    """One row per grid angle; ``g`` is the embedding of ``curve``."""
    table = np.column_stack((g.x, curve.kappa, curve.h))
    rows = _curve_rows_template(curve.n) % tuple(table.ravel().tolist())
    Path(path).write_text(f"# config_hash={cfg_hash}\ntheta,x,y,kappa,h\n" + rows)


def write_json(path, payload: dict, cfg_hash: str) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    Path(path).write_text(to_json(payload) + "\n")


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


def write_snapshot_svg(g: CurveGeometry, path, report: NonCollapseReport,
                       cfg_hash: str) -> None:
    """Standalone SVG of the curve and the inscribed circle at the mu-argmax
    contact point of ``report``.  Byte output is deterministic for fixed
    input."""
    pts = g.x
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = hi - lo
    pad = 0.1 * max(float(span[0]), float(span[1]))
    x0, y0 = lo[0] - pad, lo[1] - pad
    w, h = span[0] + 2 * pad, span[1] + 2 * pad

    # SVG y axis points down; flip about the viewBox center line.
    def sy(y):
        return (y0 + h) - (y - y0)

    i = report.argmax.i
    r = 1.0 / float(report.z_sup[i])
    center = g.x[i] - r * g.normal[i]
    flipped = np.column_stack((pts[:, 0], sy(pts[:, 1])))
    d = " L ".join(["%.17g,%.17g"] * g.m) % tuple(flipped.ravel().tolist())
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- config_hash={cfg_hash} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(x0)} {fmt(y0)} {fmt(w)} {fmt(h)}">',
        f'<path d="M {d} Z" fill="none" stroke="black" stroke-width="{fmt(0.01 * max(w, h))}"/>',
        f'<circle cx="{fmt(center[0])}" cy="{fmt(sy(center[1]))}" r="{fmt(r)}" '
        f'fill="none" stroke="red" stroke-width="{fmt(0.005 * max(w, h))}"/>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")
