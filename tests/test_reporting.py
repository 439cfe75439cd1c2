"""Report writers against the plain per-value writers they replace.

``reporting.to_json`` must give the text of ``json.dumps(obj, sort_keys=True,
indent=2)``, and the curve CSV and SVG the bytes of the per-value loops kept
below verbatim as references.  ``TestWriterWork`` is a structural guard with
no timing: on one small ``simulate`` no JSON goes through json's pure-Python
encoder and no writer formats a value per curve sample.
"""

import json
import json.encoder
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pcflow.cli
import pcflow.reporting
from pcflow import SupportCurve, construct_curve, embed_support
from pcflow.cli import EXIT_OK, main
from pcflow.curves import gauss_angles
from pcflow.noncollapse import mu_report
from pcflow.reporting import (fmt, to_json, write_json, write_snapshot_svg,
                              write_support_curve_csv)
from test_curves import convex_modes


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


# ---- the writers as they were, kept verbatim as references --------------


def write_support_curve_csv_reference(path, curve, g, cfg_hash):
    """One row per grid angle; ``g`` is the embedding of ``curve``."""
    theta = gauss_angles(curve.n)
    lines = [f"# config_hash={cfg_hash}", "theta,x,y,kappa,h"]
    for i in range(curve.n):
        lines.append(",".join(fmt(v) for v in (
            theta[i], g.x[i, 0], g.x[i, 1], curve.kappa[i], curve.h[i])))
    Path(path).write_text("\n".join(lines) + "\n")


def write_snapshot_svg_reference(g, path, report=None, cfg_hash=""):
    """Standalone SVG of the curve; optionally the inscribed circle at the
    mu-argmax contact point.  Byte output is deterministic for fixed input."""
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


# ---- JSON ----------------------------------------------------------------

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                  1.7976931348623157e308, 0.1, 1 / 3]
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(SPECIAL_FLOATS))
flat = st.one_of(st.none(), st.booleans(), floats,
                 st.integers(min_value=-2 ** 200, max_value=2 ** 200))
# quotes, backslashes, control characters, non-ASCII and json's ", "
texts = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "é",
                              " ", "\U0001f600", ", ", "%", "%s", "a"]),
             max_size=5).map("".join))
scalars = st.one_of(flat, texts)


@st.composite
def record_lists(draw):
    """Lists of dicts, mostly flat records with one key set, some made
    irregular: a key dropped or added, a str value, or a non-dict entry."""
    keys = draw(st.lists(texts, min_size=0, max_size=4, unique=True))
    records = [{k: draw(flat) for k in keys}
               for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    last = records[-1]
    twist = draw(st.sampled_from(["none", "none", "drop", "add", "str", "list"]))
    if twist == "drop" and keys:
        del last[keys[-1]]
    elif twist == "add":
        last[draw(texts)] = draw(flat)
    elif twist == "str" and keys:
        last[keys[0]] = draw(texts)
    elif twist == "list":
        records.append(draw(st.lists(flat, max_size=3)))
    return records


documents = st.recursive(
    st.one_of(scalars, record_lists()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(texts, inner, max_size=4)),
    max_leaves=24)


class TestToJson:
    @settings(max_examples=400, deadline=None)
    @given(obj=documents)
    def test_matches_json_dumps(self, obj):
        assert to_json(obj) == dumps(obj)

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists())
    def test_record_lists(self, records):
        assert to_json({"per_point": records}) == dumps({"per_point": records})

    def test_fixed_cases(self):
        cases = [
            {}, [], (), {"a": {}, "b": [], "c": ()}, [[]], [{}], [{}, {}],
            {"per_point": [{"i": 0, "r": None}, {"i": 1, "r": 0.5}]},
            [{"i": 1, "x": math.nan}, {"i": 2, "x": -math.inf}],
            [{"a": 1}, {"a": 1, "b": 2}],          # differing key sets
            [{"a": 1.0}, {"a": "1, 2"}],           # a str in a later record
            [{"a": 1.0}, {"a": np.float64(2.5)}],  # a float subclass
            [{"a%": 1, "%s": 2}],                  # % in keys
            {"s": 'q"b\\c\né, d'}, 2 ** 100, -0.0, 5e-324, 1e16,
        ]
        for obj in cases:
            assert to_json(obj) == dumps(obj), obj

    def test_noncollapse_report_at_n_1024_with_oracle(self, tmp_path):
        g = embed_support(construct_curve(
            {"fourier": {"R": 1.0, "modes": [[3, 0.05, 0.3], [5, 0.01, 1.1]]}}, 1024))
        payload = mu_report(g, include_oracle=True).to_dict()
        assert len(payload["per_point"]) == 1024
        assert all(isinstance(e["r_oracle"], float) for e in payload["per_point"])
        write_json(tmp_path / "nc.json", payload, "0123456789abcdef")
        expected = dumps(dict(payload, config_hash="0123456789abcdef")) + "\n"
        assert (tmp_path / "nc.json").read_text() == expected


# ---- curve CSV and SVG ----------------------------------------------------


class TestCurveWriters:
    @settings(max_examples=30, deadline=None)
    @given(modes=convex_modes, n=st.sampled_from([64, 256]),
           scale=st.floats(min_value=1e-3, max_value=1e3),
           shift=st.tuples(st.floats(min_value=-0.5, max_value=0.5),
                           st.floats(min_value=-0.5, max_value=0.5)))
    def test_match_per_value_writers(self, tmp_path_factory, modes, n, scale, shift):
        base = construct_curve({"fourier": {"R": 1.0, "modes": [list(m) for m in modes]}}, n)
        th = gauss_angles(n)
        curve = SupportCurve(scale * (base.h + shift[0] * np.cos(th) + shift[1] * np.sin(th)))
        g = embed_support(curve)
        report = mu_report(g)
        out = tmp_path_factory.mktemp("w")
        write_support_curve_csv(out / "new.csv", curve, g, "h")
        write_support_curve_csv_reference(out / "ref.csv", curve, g, "h")
        write_snapshot_svg(g, out / "new.svg", report, "h")
        write_snapshot_svg_reference(g, out / "ref.svg", report=report, cfg_hash="h")
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
        assert (out / "new.svg").read_bytes() == (out / "ref.svg").read_bytes()


# ---- structural guard -----------------------------------------------------


class TestWriterWork:
    """Counts only, no timing: JSON never falls back to json's pure-Python
    encoder, and a snapshot file takes a fixed number of ``fmt`` calls."""

    def test_simulate_formats_no_value_per_sample(self, tmp_path, monkeypatch):
        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        calls = []
        monkeypatch.setattr(pcflow.reporting, "fmt", lambda x: calls.append(1) or fmt(x))
        per_file = {}

        def counting(writer, path_arg):
            def wrapper(*args, **kwargs):
                before = len(calls)
                writer(*args, **kwargs)
                per_file[Path(args[path_arg]).name] = len(calls) - before
            return wrapper

        for name in ("write_json", "write_support_curve_csv", "write_timeseries_csv"):
            monkeypatch.setattr(pcflow.cli, name, counting(getattr(pcflow.cli, name), 0))
        monkeypatch.setattr(pcflow.cli, "write_snapshot_svg",
                            counting(pcflow.cli.write_snapshot_svg, 1))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0}}, "p": 2.0, "n": 64,
            "horizon": {"t_end": 0.01}, "monitor_every": 20}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

        rows = len((tmp_path / "out" / "timeseries.csv").read_text().splitlines()) - 2
        assert rows >= 3
        assert per_file.pop("timeseries.csv") <= 8 * rows   # one table row per snapshot
        assert len(per_file) == 3 * rows + 1
        # the SVG header and circle: 9 values, whatever the number of samples
        assert max(per_file.values()) <= 9
        assert all(per_file[f"curve_{k}.csv"] == 0 for k in range(rows))
        assert all(v == 0 for name, v in per_file.items() if name.endswith(".json"))
