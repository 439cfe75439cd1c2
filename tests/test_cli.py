"""Config parsing, report writers, and the command-line workflows."""

import errno
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcflow

from pcflow import ConfigInvalid, NonFinite
from pcflow.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_VERIFY, main
from pcflow.config import config_hash, parse_config
from pcflow.identities import verify_suite

SIM_CFG = {
    "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0}},
    "p": 2.0,
    "n": 64,
    "horizon": {"t_end": 0.01},
    "monitor_every": 100,
}

VERIFY_CFG = {
    "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0}},
    "p": 2.0,
    "n": 128,
}
# sweep-mu0 runs no initial_curve, but a bad one is still a bad config
BAD_RADIUS = {**VERIFY_CFG, "initial_curve": {"circle": {"R": -1.0}},
              "sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.02], "n": 64}}
NOT_CONVEX = {**VERIFY_CFG, "initial_curve": {"fourier": {"R": 1.0, "modes": [[3, 0.2, 0.0]]}}}
# the message gives min(h + h'') on the first grid built, and the threshold:
# the config's n = 128, but verify's evolution ladder starts at n = 64
NOT_CONVEX_MESSAGE = {n: ("fourier: discrete convexity violated: min(h + h'') = %s "
                          "<= EPS_CONVEX = 1e-09\n" % rc_min)
                      for n, rc_min in ((64, "-0.599851"), (128, "-0.599991"))}
# a circle whose radius is below the absolute threshold EPS_CONVEX
TINY_CIRCLE = {**VERIFY_CFG, "initial_curve": {"circle": {"R": 1e-10}}}
TINY_CIRCLE_MESSAGE = ("circle: discrete convexity violated: min(h + h'') = 1e-10 "
                       "<= EPS_CONVEX = 1e-09\n")


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config('{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0}')
        assert cfg.n == 512
        assert cfg.sigma == 0.4
        assert cfg.seed == 0

    def test_not_json(self):
        with pytest.raises(ConfigInvalid):
            parse_config("p = 2")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown config key"):
            parse_config('{"initial_curve": {"circle": {"R": 1}}, "p": 2, "pp": 3}')
        # tolerances live in identities.TOLERANCES, not in the config
        with pytest.raises(ConfigInvalid, match="unknown config key"):
            parse_config('{"initial_curve": {"circle": {"R": 1}}, "p": 2,'
                         ' "tolerances": {"tol_mu": 0.5}}')

    def test_missing_p(self):
        with pytest.raises(ConfigInvalid, match="p: required"):
            parse_config('{"initial_curve": {"circle": {"R": 1}}}')

    def test_negative_seed(self):
        # parse_config owns the rule, with every other config rule
        with pytest.raises(ConfigInvalid, match=r"^seed: must be >= 0, got -1$"):
            parse_config('{"initial_curve": {"circle": {"R": 1}}, "p": 2, "seed": -1}')

    def test_p_range(self):
        with pytest.raises(ConfigInvalid, match="must exceed 1"):
            parse_config('{"initial_curve": {"circle": {"R": 1}}, "p": 1.0}')

    def test_n_power_of_two(self):
        with pytest.raises(ConfigInvalid, match="power of two"):
            parse_config('{"initial_curve": {"circle": {"R": 1}}, "p": 2, "n": 100}')

    def test_horizon_forms(self):
        base = '{"initial_curve": {"circle": {"R": 1}}, "p": 2, "horizon": %s}'
        assert parse_config(base % '{"t_end": 0.5}').horizon == {"t_end": 0.5}
        assert parse_config(base % '{"until": 0.8}').horizon == {"until": 0.8}
        with pytest.raises(ConfigInvalid):
            parse_config(base % '{"until": 0.95}')
        with pytest.raises(ConfigInvalid):
            parse_config(base % '{"stop": 1}')

    def test_sweep_requires_fields(self):
        with pytest.raises(ConfigInvalid, match="sweep.family"):
            parse_config('{"initial_curve": {"circle": {"R": 1}}, "p": 2,'
                         ' "sweep": {"p_values": [2], "grid": [1.1]}}')

    def test_hash_tracks_content(self):
        c1 = parse_config('{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0}')
        c2 = parse_config('{"initial_curve": {"circle": {"R": 1.0}}, "p": 3.0}')
        assert config_hash(c1) != config_hash(c2)
        assert config_hash(c1) == config_hash(c1)
        assert len(config_hash(c1)) == 16

    @settings(max_examples=50, deadline=None)
    @given(payload=st.fixed_dictionaries({
        "initial_curve": st.one_of(
            st.builds(lambda r: {"circle": {"R": r}}, st.floats(0.01, 100.0)),
            st.builds(lambda a, b: {"ellipse": {"a": a, "b": b}},
                      st.floats(1.0, 3.0), st.floats(0.1, 1.0))),
        "p": st.floats(1.01, 10.0),
        "n": st.sampled_from([64, 128, 1024, 65536]),
        "sigma": st.floats(0.01, 0.9),
        "seed": st.integers(0, 2 ** 63),
    }, optional={
        "horizon": st.builds(lambda f: {"until": f}, st.floats(0.0, 0.9)),
        "monitor_every": st.integers(1, 1000),
        "outputs": st.text(st.characters(exclude_characters="\0"), max_size=20),
    }))
    def test_hash_is_sha256_of_canonical_json(self, payload):
        cfg = parse_config(json.dumps(payload))
        canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
        assert config_hash(cfg) == hashlib.sha256(canonical.encode()).hexdigest()[:16]


class TestConfigErrors:
    """Bad numbers exit 1 with a config error, never with a traceback or a
    silently altered value."""

    @pytest.mark.parametrize("entry", [
        '"n": NaN', '"n": Infinity', '"n": 128.7', '"monitor_every": NaN',
        '"seed": Infinity', '"seed": -1', '"horizon": {"t_end": NaN}',
        '"horizon": {"t_end": Infinity}', '"horizon": {"t_end": true}',
        '"horizon": {"until": "x"}', '"horizon": {"t_end": %s}' % ("9" * 400),
        '"n": 1180591620717411303424', '"n": 131072',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1], '
        '"n": 1180591620717411303424}',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1], "n": 131072}',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": ["x"]}',
        '"sweep": {"p_values": 2.0, "family": "ellipse", "grid": [1.1]}',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1], "n": 64.5}',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1], "n": 96}',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1], '
        '"horizon_frac": "x"}',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1], '
        '"horizon_frac": 0.95}',
        # sweep-mu0 would report the last passing entry as the largest
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1, 1.05]}',
        '"sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.05, 1.1, 1.1]}',
        '"sweep": {"p_values": [2.0, 0.5], "family": "ellipse", "grid": [1.1]}',
        '"sweep": {"p_values": [2.0], "family": "circle", "grid": [1.1]}',
        # no OS path holds a NUL
        '"outputs": "a\\u0000b"',
    ])
    def test_exits_with_config_error(self, tmp_path, capsys, entry):
        path = tmp_path / "cfg.json"
        path.write_text('{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0, '
                        '%s}' % entry)
        assert main(["noncollapse", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, message", [
        ('{"p_values": [2.0, 1.0], "family": "ellipse", "grid": [1.1]}',
         "sweep.p_values: must exceed 1"),
        ('{"p_values": [2.0], "family": ["ellipse"], "grid": [1.1]}',
         "sweep.family: must be one of ['ellipse', 'fourier']"),
        # the 0.2 curve is not convex; the p = 2, 0.05 run comes before it
        ('{"p_values": [2.0, 3.0], "family": "fourier", "grid": [0.05, 0.2], "n": 128, '
         '"horizon_frac": 0.3}',
         "config error: sweep.grid: entry 0.2: fourier: discrete convexity violated"),
    ])
    def test_sweep_fails_before_any_run(self, tmp_path, capsys, monkeypatch, sweep, message):
        # no run is stepped first, and the entries of parse_config's checks name their key
        monkeypatch.setattr(pcflow.flow, "step_support", None)
        path = tmp_path / "cfg.json"
        path.write_text('{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0, '
                        '"sweep": %s}' % sweep)
        assert main(["sweep-mu0", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("curve", [
        '{"ellipse": {"a": Infinity, "b": 1.0}}',
        '{"ellipse": {"a": "wide", "b": 1.0}}',
        '{"ellipse": {"a": 1.3, "b": 1.0, "phase": NaN}}',
        '{"fourier": {"R": 1.0, "modes": [[3, 0.01]]}}',
        '{"fourier": {"R": 1.0, "modes": [[3.5, 0.01, 0.0]]}}',
        '{"fourier": {"R": 1.0, "modes": [[%s, 0.01, 0.0]]}}' % ("9" * 400),
        '{"fourier": {"R": 1.0, "modes": "3 0.01 0.0"}}',
    ])
    def test_curve_parameters_must_be_finite_numbers(self, tmp_path, capsys, curve):
        path = tmp_path / "cfg.json"
        path.write_text('{"initial_curve": %s, "p": 2.0, "n": 64}' % curve)
        assert main(["noncollapse", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("curve", [
        # finite parameters whose curve leaves the float range: (2R)^2
        # overflows, so the kernel's squared chords would read inf
        '{"circle": {"R": 1e160}}',
        # (a cos t)^2 overflows, so the support values are inf
        '{"ellipse": {"a": 1e200, "b": 1.0}}',
        # (2R)^2 is finite, but the area's sum of h (h + h'') overflows
        '{"circle": {"R": 6e153}}',
    ])
    def test_oversized_curve_is_config_error(self, tmp_path, capsys, curve):
        # a numpy RuntimeWarning on the way would be raised as an error
        path = tmp_path / "cfg.json"
        path.write_text('{"initial_curve": %s, "p": 2.0, "n": 64}' % curve)
        assert main(["noncollapse", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "float range" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [2000, 1e300])
    def test_overflowing_extinction_estimate(self, tmp_path, capsys, monkeypatch, p):
        # the inscribed circle's R0^(p+1), R0 = 2, lies past the float range:
        # with {"until": f} that is a config error that names the key, before
        # any step; with {"t_end": T} the run's first timestep bound, whose
        # kappa_max^(p+1) = 0.5^(p+1) underflows, aborts it
        base = {"initial_curve": {"circle": {"R": 2.0}}, "p": p, "n": 64}
        until = write_cfg(tmp_path, {**base, "horizon": {"until": 0.5}}, "until.json")
        with monkeypatch.context() as patch:
            patch.setattr(pcflow.flow, "step_support", None)
            assert main(["simulate", "--config", until,
                         "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: horizon.until: ") and "float range" in err
        t_end = write_cfg(tmp_path, {**base, "horizon": {"t_end": 0.5}}, "t_end.json")
        assert main(["simulate", "--config", t_end,
                     "--out", str(tmp_path / "t")]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "runtime error: flow aborted: nonfinite\n"

    @pytest.mark.parametrize("command, cfg, message", [
        *(pytest.param(command, BAD_RADIUS, "circle radius must be positive\n", id=command)
          for command in ("simulate", "verify", "noncollapse", "sweep-mu0")),
        # errors that need a built curve, or the extinction estimate of one
        *(pytest.param(command, NOT_CONVEX, NOT_CONVEX_MESSAGE[n], id=f"{command}-not-convex")
          for command, n in (("noncollapse", 128), ("simulate", 128), ("verify", 64))),
        *(pytest.param(command, TINY_CIRCLE, TINY_CIRCLE_MESSAGE, id=f"{command}-tiny-circle")
          for command in ("noncollapse", "simulate", "verify")),
        pytest.param("sweep-mu0", {**VERIFY_CFG, "sweep": {
            "p_values": [2.0], "family": "fourier", "grid": [0.05, 0.2], "n": 64}},
            f"sweep.grid: entry 0.2: {NOT_CONVEX_MESSAGE[64]}", id="sweep-mu0-grid"),
        pytest.param("simulate", {"initial_curve": {"circle": {"R": 2.0}}, "p": 2000,
                                  "n": 64, "horizon": {"until": 0.5}},
                     "horizon.until: the extinction time R0^(p+1)/(p+1) of R0 = 2.0 and "
                     "p = 2000.0 exceeds the float range\n", id="simulate-until"),
    ])
    def test_bad_curve_spec_fails_before_the_output_directory(self, tmp_path, capsys,
                                                              monkeypatch, command, cfg,
                                                              message):
        monkeypatch.setattr(pcflow.flow, "step_support", None)
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}"
        assert not out.exists()

    def test_unusable_output_directory_is_a_config_error(self, tmp_path, capsys,
                                                         monkeypatch):
        # a file where the directory should be: simulate fails before the flow
        monkeypatch.setattr(pcflow.flow, "step_support", None)
        out = tmp_path / "o"
        out.write_text("")
        assert main(["simulate", "--config", write_cfg(tmp_path, VERIFY_CFG),
                     "--out", str(out / "sub")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: [Errno {errno.ENOTDIR}] "
                                           f"{os.strerror(errno.ENOTDIR)}: {str(out / 'sub')!r}\n")

    def test_empty_out_is_the_working_directory(self, tmp_path, monkeypatch):
        # --out takes the place of the config's outputs even when it is empty
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, {**VERIFY_CFG, "n": 64, "outputs": "from_cfg"})
        assert main(["noncollapse", "--config", cfg, "--out", ""]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cfg.json", "curve.svg", "noncollapse.json"]

    @pytest.mark.parametrize("command, cfg, message", [
        ("sweep-mu0", VERIFY_CFG, "sweep: section required for sweep-mu0"),
        ("verify", {**VERIFY_CFG, "n": 65536},
         "verify grid 2n: must be a power of two in [64, 65536], got 131072"),
    ])
    def test_command_rule_fails_before_the_output_directory(self, tmp_path, capsys,
                                                            command, cfg, message):
        # rules that need no built curve, but only this command applies
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # a run is its config file: there is no seed option
        (["verify", "--config", "CFG", "--out", "o", "--seed", "1"],
         "unrecognized arguments: --seed 1\n"),
        (["simulate", "--out", "o"], "the following arguments are required: --config\n"),
        # Python 3.11 and 3.13 word the list of choices differently
        (["frob", "--config", "CFG", "--out", "o"], "argument command: invalid choice: 'frob'"),
        ([], "the following arguments are required: command\n"),
        (["simulate", "--config", "CFG", "--config", "CFG", "--out", "o"],
         "argument --config: given more than once\n"),
        # an option must be spelled in full: a prefix is not its abbreviation
        (["noncollapse", "--conf", "CFG", "--out", "o"],
         "the following arguments are required: --config\n"),
        (["noncollapse", "--config", "CFG", "--ou", "o"], "unrecognized arguments: --ou o\n"),
        (["verify", "--config", "CFG", "--out", "o", "--inject"],
         "unrecognized arguments: --inject\n"),
    ], ids=["seed", "no-config", "unknown-command", "empty", "repeated-config", "conf", "ou",
            "inject"])
    def test_bad_command_line_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    argv, message):
        # main returns 1 with one config error, as for a bad config: no
        # SystemExit escapes, and no output directory is made
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        assert main([cfg if a == "CFG" else a for a in argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [["-h"], ["verify", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pcflow")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0, '
                         b'"outputs": "r\xe9sultats"}')
        assert main(["noncollapse", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_integral_float_keeps_the_hash(self):
        # a whole number written as a float, a negative zero, or a sweep key
        # left at its default, states the same config
        base = '{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0, "n": %s}'
        sweep = ('{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0, "sweep": '
                 '{"family": "ellipse", %s}}')
        curve = '{"initial_curve": %s, "p": 2.0}'
        horizon = '{"initial_curve": {"circle": {"R": 1.0}}, "p": 2.0, "horizon": {%s}}'
        for a, b in [
            (base % "128.0", base % "128"),
            (sweep % '"p_values": [2], "grid": [1.1, 2], "n": 128.0',
             sweep % '"p_values": [2.0], "grid": [1.1, 2.0], "n": 128'),
            (sweep % '"p_values": [2.0], "grid": [1.1]',
             sweep % '"p_values": [2.0], "grid": [1.1], "n": 128, "horizon_frac": 0.5'),
            (sweep % '"p_values": [3], "grid": [1.1], "horizon_frac": 0.25',
             sweep % '"p_values": [3.0], "grid": [1.1], "horizon_frac": 0.25, "n": 128'),
            # curve specs and horizons are stored in one normal form too
            (base.replace("1.0", "1") % 128, base % 128),
            (curve % '{"fourier": {"R": 1.0, "modes": [[3.0, 0.05, 0]]}}',
             curve % '{"fourier": {"R": 1.0, "modes": [[3, 0.05, 0.0]]}}'),
            (curve % '{"ellipse": {"a": 1.3, "b": 1.0}}',
             curve % '{"ellipse": {"a": 1.3, "b": 1.0, "phase": 0.0}}'),
            (horizon % '"t_end": 1', horizon % '"t_end": 1.0'),
            (horizon % '"until": 0', horizon % '"until": 0.0'),
            # a negative zero is stored as 0.0
            (horizon % '"t_end": -0.0', horizon % '"t_end": 0.0'),
            (curve % '{"ellipse": {"a": 1.3, "b": 1.0, "phase": -0.0}}',
             curve % '{"ellipse": {"a": 1.3, "b": 1.0, "phase": 0.0}}'),
        ]:
            assert config_hash(parse_config(a)) == config_hash(parse_config(b)), (a, b)
        stored = parse_config(curve % '{"ellipse": {"a": 1.3, "b": 1}}').initial_curve
        assert json.dumps(stored) == json.dumps({"ellipse": {"a": 1.3, "b": 1.0, "phase": 0.0}})


class TestSimulate:
    def test_produces_expected_files(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "timeseries.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "curve_0.csv").exists()
        assert (out / "curve_0.svg").exists()
        assert (out / "noncollapse_0.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminal_reason"] == "t_end"
        assert not summary["aborted"]
        assert summary["t_final"] == pytest.approx(0.01)
        assert summary["steps"] > 0
        assert 0.0 < summary["dt_min"] <= summary["dt_max"]
        assert summary["convexity_margin"] > 0.0

    def test_aborted_summary_describes_the_last_snapshot(self, tmp_path, monkeypatch, capsys):
        # convexity fails inside the 20th step; the last snapshot is step 14
        step, calls = pcflow.flow.step_support, []

        def failing(rows, dt, groups):
            calls.append(1)
            # a step 1e6 times too long takes h below 0: ConvexityLost
            return step(rows, dt * 1e6 if len(calls) == 20 else dt, groups)

        monkeypatch.setattr(pcflow.flow, "step_support", failing)
        cfg = write_cfg(tmp_path, {**SIM_CFG, "monitor_every": 7})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "runtime error: flow aborted: convexitylost\n"
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["terminal_reason"], summary["aborted"]) == ("convexitylost", True)
        assert summary["steps"] == 14
        last_row = (out / "timeseries.csv").read_text().splitlines()[-1]
        assert float(last_row.split(",")[0]) == pytest.approx(summary["t_final"], rel=1e-12)
        assert 0.0 < summary["dt_min"] <= summary["dt_max"]

    def test_failing_snapshot_keeps_the_earlier_outputs(self, tmp_path, monkeypatch, capsys):
        # the third snapshot's isoperimetric ratio raises: the files of the
        # first two stay, and no later file is written
        ratio, calls = pcflow.cli.isoperimetric_ratio, []

        def failing(g):
            calls.append(1)
            if len(calls) == 3:
                raise NonFinite("isoperimetric ratio needs finite L and positive A")
            return ratio(g)

        monkeypatch.setattr(pcflow.cli, "isoperimetric_ratio", failing)
        cfg = write_cfg(tmp_path, {**SIM_CFG, "monitor_every": 7})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == ("runtime error: isoperimetric ratio needs "
                                           "finite L and positive A\n")
        for k in (0, 1):
            for name in (f"curve_{k}.csv", f"curve_{k}.svg", f"noncollapse_{k}.json"):
                assert (out / name).exists()
        for name in ("curve_2.csv", "timeseries.csv", "summary.json"):
            assert not (out / name).exists()

    def test_overflowing_timestep_is_a_runtime_failure(self, tmp_path, capsys):
        # kappa_max ** (p + 1) = 2 ** 1101 overflows before the first step
        cfg = write_cfg(tmp_path, {"initial_curve": {"circle": {"R": 0.5}}, "p": 1100.0,
                                   "n": 64, "horizon": {"t_end": 0.01}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "runtime error: flow aborted: nonfinite\n"
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["terminal_reason"], summary["steps"]) == ("nonfinite", 0)
        assert summary["dt_min"] is None

    @pytest.mark.parametrize("curve, p, t_end", [
        # kappa_max ** (p + 1) = 0.5 ** 2001 underflows to 0
        ({"circle": {"R": 2.0}}, 2000, 0.5),
        # kappa_max ** (p + 1) = 1e-450 underflows to 0
        ({"circle": {"R": 1e150}}, 2.0, 0.01),
    ])
    def test_aborted_run_says_why(self, tmp_path, capsys, curve, p, t_end):
        # the files are written first, then the reason goes to stderr
        cfg = write_cfg(tmp_path, {"initial_curve": curve, "p": p, "n": 64,
                                   "horizon": {"t_end": t_end}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "runtime error: flow aborted: nonfinite\n"
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["terminal_reason"], summary["aborted"], summary["steps"]) == (
            "nonfinite", True, 0)
        assert (out / "timeseries.csv").exists()

    def test_timeseries_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "t,dt,area,length,isoperimetric,kappa_min,kappa_max,mu"
        assert len(lines) >= 4

    def test_svg_contains_curve_and_disc(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        svg = (out / "curve_0.svg").read_text()
        assert "<path" in svg
        assert "<circle" in svg

    def test_nonconvex_initial_curve_is_config_error(self, tmp_path):
        payload = {"initial_curve": {"fourier": {"R": 1, "modes": [[2, 0.8, 0]]}},
                   "p": 2.0}
        cfg = write_cfg(tmp_path, payload)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestNonCollapse:
    def test_report_with_oracle(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        assert main(["noncollapse", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "noncollapse.json").read_text())
        assert rep["mu"] > 1.0
        assert rep["delta_equiv"] == pytest.approx(1.0 / rep["mu"])
        assert all(e["r_oracle"] is not None for e in rep["per_point"])


class TestVerify:
    def test_passes_on_correct_flow(self, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "verify.json").read_text())
        assert rep["pass"]
        names = {r["name"] for r in rep["reports"]}
        assert names == {"kappa_evolution[kappa_p]", "kappa_evolution[kappa]",
                         "rewrite_equivalence", "trig_identity"}

    def test_suite_is_the_written_report(self, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        written = json.loads((out / "verify.json").read_text())
        del written["config_hash"]
        suite = verify_suite(VERIFY_CFG["initial_curve"], VERIFY_CFG["p"],
                             VERIFY_CFG["n"], seed=0)
        # a rewrite report has no order, which is written as null
        assert written["reports"][2]["estimated_order"] is None
        assert suite == written

    def test_largest_grid_has_no_doubling(self, tmp_path, capsys):
        # n = 65536 is a valid grid, but verify refines it to 2n
        cfg = write_cfg(tmp_path, {**VERIFY_CFG, "n": 65536})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "verify grid 2n" in capsys.readouterr().err

    def test_overflowing_marker_timestep_is_a_runtime_failure(self, tmp_path, capsys):
        # max(kappa) ** (p - 1) = 1.3 ** 2999 is past the float range
        cfg = write_cfg(tmp_path, {**VERIFY_CFG, "p": 3000.0})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "stable timestep is not finite" in capsys.readouterr().err

    def test_underflowing_residuals_have_no_order(self, tmp_path, capsys):
        # a circle of radius 1e65: every kappa_p residual underflows to 0, so
        # that report has no order and fails, instead of dividing by zero
        cfg = write_cfg(tmp_path, {**VERIFY_CFG, "initial_curve": {"circle": {"R": 1e65}},
                                   "n": 64})
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VERIFY
        assert capsys.readouterr().err == ""
        kappa_p = json.loads((out / "verify.json").read_text())["reports"][0]
        assert kappa_p["name"] == "kappa_evolution[kappa_p]"
        assert kappa_p["residuals"] == [0.0, 0.0, 0.0]
        assert (kappa_p["estimated_order"], kappa_p["pass"]) == (None, False)

    def test_overflowing_marker_lengths_are_a_runtime_failure(self, tmp_path, capsys):
        # a circle of radius 1e120: the marker curvature's product of three
        # lengths, about 1e357, lies past the float range; that is not a
        # convexity loss, and numpy warns of no overflow
        cfg = write_cfg(tmp_path, {**VERIFY_CFG, "initial_curve": {"circle": {"R": 1e120}},
                                   "n": 64})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: marker curve too large for the float range")

    def test_overflowing_residual_is_a_runtime_failure(self, tmp_path, capsys):
        # p kappa^(2p + 1) = 2000 * 1.3 ** 4001 is past the float range,
        # though the marker steps' kappa^(p - 1) and kappa^p are not
        cfg = write_cfg(tmp_path, {**VERIFY_CFG, "p": 2000.0, "n": 64})
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "runtime error: evolution residual exceeds the float range\n")

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_sign_error_detected(self, tmp_path, p):
        cfg = write_cfg(tmp_path, {**VERIFY_CFG, "p": p})
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg, "--out", str(out),
                   "--inject-sign-error"])
        assert rc == EXIT_VERIFY
        rep = json.loads((out / "verify.json").read_text())
        assert not rep["pass"]
        evolution = {r["name"]: r["pass"] for r in rep["reports"]
                     if r["name"].startswith("kappa_evolution[")}
        assert evolution == {"kappa_evolution[kappa_p]": False,
                             "kappa_evolution[kappa]": False}

    def test_trig_roundoff_floor_passes(self, tmp_path):
        # trig residuals 2.1e-13 at n = 1024 and 1.25e-13 at 2048: round-off,
        # above a fixed 1e-13 floor and short of the 1.8x drop
        payload = {"initial_curve": {"ellipse": {"a": 1.20182, "b": 1.0,
                                                 "phase": 2.440488}},
                   "p": 2.0, "n": 1024}
        out = tmp_path / "out"
        assert main(["verify", "--config", write_cfg(tmp_path, payload),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads((out / "verify.json").read_text())
        trig = next(r for r in rep["reports"] if r["name"] == "trig_identity")
        assert 1e-13 < trig["residuals"][0] < 1e-12

    @pytest.mark.parametrize("curve", [
        {"fourier": {"R": 1.0, "modes": [[3, 0.02, 0.0]]}},
        *({"ellipse": {"a": 1.34 * s, "b": s}} for s in (0.5, 1.0, 2.0)),
    ], ids=["fourier", "ellipse-s0.5", "ellipse-s1", "ellipse-s2"])
    def test_near_circle_evolution_passes(self, tmp_path, curve):
        # p = 3: the kappa_p residuals carry the units of kappa^7, so only
        # their orders are judged.  The Fourier curve's read 0.797, 0.224,
        # 0.0577 (order 1.83); each ellipse's orders are 1.93 (kappa_p) and
        # 1.87 (kappa) at every s, while its last kappa_p residual scales as
        # s^-7 (6.52, 0.0509, 3.98e-4)
        payload = {"initial_curve": curve, "p": 3.0, "n": 256}
        assert main(["verify", "--config", write_cfg(tmp_path, payload),
                     "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("profile", [
        {128: 1e-9, 256: 1e-9},
        # round-off at n does not excuse a residual that grows past it at 2n
        {128: 1e-13, 256: 1e-11},
    ], ids=["flat", "rising"])
    def test_trig_residual_that_does_not_drop_fails(self, tmp_path, monkeypatch, profile):
        import pcflow.identities

        monkeypatch.setattr(pcflow.identities, "trig_refined_profile",
                            lambda c: profile[c.n])
        out = tmp_path / "out"
        assert main(["verify", "--config", write_cfg(tmp_path, VERIFY_CFG),
                     "--out", str(out)]) == EXIT_VERIFY
        rep = json.loads((out / "verify.json").read_text())
        assert [r["pass"] for r in rep["reports"]] == [True, True, True, False]

    def test_runtime_convexity_loss_is_runtime_error(self, tmp_path, monkeypatch):
        import pcflow.identities
        from pcflow import ConvexityLost

        def lose_convexity(*args, **kwargs):
            raise ConvexityLost("negative discrete curvature")

        monkeypatch.setattr(pcflow.identities, "step_markers", lose_convexity)
        assert main(["verify", "--config", write_cfg(tmp_path, VERIFY_CFG),
                     "--out", str(tmp_path / "out")]) == EXIT_RUNTIME


class TestSweep:
    def test_sweep_csv(self, tmp_path):
        payload = {
            "initial_curve": {"circle": {"R": 1.0}},
            "p": 2.0,
            "sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1],
                      "n": 64, "horizon_frac": 0.3},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep-mu0", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "mu0_sweep.csv").read_text().splitlines()
        assert "EMPIRICAL" in lines[1]
        assert lines[2] == "p,family,param,mu0_empirical,pass"
        assert len(lines) == 4

    def test_aborted_flow_is_runtime_error(self, tmp_path, monkeypatch):
        import pcflow.identities
        from pcflow.flow import Trajectory

        def aborted(states, cfgs):
            return [Trajectory((state,), "convexitylost", aborted=True) for state in states]

        monkeypatch.setattr(pcflow.identities, "run_flows", aborted)
        payload = {
            "initial_curve": {"circle": {"R": 1.0}},
            "p": 2.0,
            "sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.1],
                      "n": 64, "horizon_frac": 0.3},
        }
        cfg = write_cfg(tmp_path, payload)
        assert main(["sweep-mu0", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_RUNTIME

    def test_sweep_runs_at_the_config_sigma_and_monitor_every(self, tmp_path, monkeypatch):
        import pcflow.identities

        run_flows, cfgs = pcflow.identities.run_flows, []

        def spy(states, flow_cfgs):
            cfgs.extend(flow_cfgs)
            return run_flows(states, flow_cfgs)

        monkeypatch.setattr(pcflow.identities, "run_flows", spy)
        payload = {
            "initial_curve": {"circle": {"R": 1.0}},
            "p": 2.0, "sigma": 0.3, "monitor_every": 7,
            "sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.05, 1.1],
                      "n": 64, "horizon_frac": 0.05},
        }
        assert main(["sweep-mu0", "--config", write_cfg(tmp_path, payload),
                     "--out", str(tmp_path / "o")]) == EXIT_OK
        assert [(c.sigma, c.monitor_every) for c in cfgs] == [(0.3, 7), (0.3, 7)]

    def test_sweep_requires_section(self, tmp_path):
        cfg = write_cfg(tmp_path, SIM_CFG)
        assert main(["sweep-mu0", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def _loaded_by_cli_import(name, run=""):
    """The modules ``name`` and ``name.*`` that a fresh interpreter holds
    after ``import pcflow.cli`` and then the statements ``run``."""
    src = str(Path(pcflow.__file__).resolve().parents[1])
    probe = (f"import sys, pcflow.cli\n{run}\n"
             f"print(sorted(m for m in sys.modules "
             f"if m == {name!r} or m.startswith({name + '.'!r})))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_openssl():
    # hashlib's OpenSSL binding; the config hash takes CPython's own SHA-256
    assert _loaded_by_cli_import("_hashlib") == "[]"


def test_verify_loads_no_numpy_random(tmp_path):
    # the rewrite sweep draws from random.Random; numpy.random would add
    # about 6 MB to the process
    argv = ["verify", "--config", write_cfg(tmp_path, VERIFY_CFG),
            "--out", str(tmp_path / "out")]
    run = f"assert pcflow.cli.main({argv!r}) == {EXIT_OK}"
    assert _loaded_by_cli_import("numpy.random", run) == "[]"
