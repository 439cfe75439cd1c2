"""A config fuzzer for the exit-code contract of ``pcflow``.

Each example changes one key of a valid n = 64 config (or removes it) and
runs ``cli.main`` in process on one subcommand, with ``--out``, or without it
for a changed ``outputs``, which then names the output directory.  Whatever
the change, the command returns 0-3 and raises nothing, and numpy warns of
nothing; exit 1 is a config error that names a key, before any support step
(``verify`` and ``sweep-mu0`` make their output directory after their runs);
exit 2 is a runtime error with a message.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcflow.flow
from pcflow.cli import main

BASE = {
    "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0}},
    "p": 2.0,
    "n": 64,
    "sigma": 0.4,
    "horizon": {"t_end": 0.01},
    "monitor_every": 50,
    "seed": 0,
    "sweep": {"p_values": [2.0], "family": "ellipse", "grid": [1.02, 1.05],
              "n": 64, "horizon_frac": 0.05},
}
COMMANDS = ("simulate", "noncollapse", "verify", "sweep-mu0")
DELETE = object()     # the mutation that removes the key

# Support steps a fuzzed run may take.  sigma = 1e-300 at t_end 0.01 would
# take about 1e301 of them; the step budget ends such a run in the test.
STEP_BUDGET = 2000


class StepBudget(Exception):
    """A run took more than STEP_BUDGET support steps."""


EXTREME = [1e300, -1e300, 1e-300, -1e-300, 5e-324, sys.float_info.max,
           -sys.float_info.max, 2 ** 70, -(2 ** 70), math.inf, math.nan]
BOUNDARY = [0, 0.0, -0.0, 1, -1, 1.0, math.nextafter(1.0, 2.0), 0.9,
            math.nextafter(0.9, 1.0), 63, 96, 128, 65537, 131072]
WRONG_TYPE = ["2", None, True, False, [2.0], {"x": 1.0}]
EMPTY = [[], {}, ""]
GENERIC = EXTREME + BOUNDARY + WRONG_TYPE + EMPTY + [DELETE]

# Values of one key that are valid alone but meet the rest of the config
# badly, or stress a later stage.  No value gives a support grid above 128:
# a valid n of 65536 runs the O(n^2) scans for minutes.
SPECIFIC = {
    ("initial_curve",): [
        {"ellipse": {"a": 1.0, "b": 1.3}},
        # each mode alone is convex, together they are not
        {"fourier": {"R": 1.0, "modes": [[3, 0.07, 0.0], [5, 0.025, 0.0]]}},
        {"fourier": {"R": 1.0, "modes": []}},
        {"fourier": {"R": 1.0, "modes": [[1, 0.01, 0.0]]}},
        {"circle": {"R": 1e-9}}, {"circle": {"R": 1e-8}}, {"circle": {"R": 1e65}},
        {"circle": {"R": 1e120}}, {"circle": {"R": 1e150}}, {"circle": {"R": 1e160}},
        {"circle": {"R": 1.0}, "ellipse": {"a": 1.3, "b": 1.0}}, {"square": {"R": 1.0}},
        # each breaks one rule of a mode
        {"fourier": {"R": 1.0, "modes": [[3.5, 0.01, 0.0]]}},
        {"fourier": {"R": 1.0, "modes": [[3, "x", 0.0]]}},
        {"fourier": {"R": 1.0, "modes": [[3, 0.01]]}},
        {"fourier": {"R": 1.0, "modes": {"k": 3}}},
        {"circle": {"R": 1}},
    ],
    ("initial_curve", "ellipse", "a"): [1.0, 0.99, 1e154, 20.0],
    ("initial_curve", "ellipse", "b"): [1.3, 1.31, 0.05, 1e-5],
    ("initial_curve", "ellipse", "phase"): [math.pi, -1e300],
    ("p",): [2000, 1100.0, 1e6, 40.0],
    ("n",): [64.0, 2 ** 16 + 0.5],
    ("sigma",): [0.9, 1e-3],
    ("horizon",): [{"until": 0.9}, {"until": 0}, {"until": 1.0}, {"t_end": 0},
                   {"until": 0.5, "t_end": 0.01}, {"end": 0.01}],
    ("horizon", "t_end"): [1.0, 1e-9],
    ("monitor_every",): [1, 2.5],
    ("seed",): [2 ** 40, 1e300],
    ("outputs",): [3, "a\0b"],
    ("sweep",): [None],
    ("sweep", "p_values"): [[1e6], [1.0], [2.0, 2.0], [3.0, 2.0], [2.0, "x"]],
    ("sweep", "family"): ["fourier", "circle"],
    ("sweep", "grid"): [[1.05, 1.02], [1.02, 1.02], [0.5], [1e300], [1.0]],
    ("sweep", "n"): [64.0],
    ("sweep", "horizon_frac"): [0.9, 1e-300],
    ("sweep", "extra"): [1],
}
mutations = st.sampled_from(sorted(SPECIFIC)).flatmap(
    lambda path: st.tuples(st.just(path), st.sampled_from(GENERIC + SPECIFIC[path])))


def mutated(changes) -> dict:
    """BASE with each (path, value) of ``changes`` applied."""
    cfg = json.loads(json.dumps(BASE))
    for path, value in changes:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return cfg


def key_names(node) -> set:
    """Every key of ``node`` and the dicts within it."""
    if isinstance(node, dict):
        return set(node).union(*map(key_names, node.values()))
    if isinstance(node, list):
        return set().union(*map(key_names, node))
    return set()


def names_a_key(message: str, names: set) -> bool:
    """Whether ``message`` holds one of ``names`` as a word; a one-letter
    name (p, n, a, b, R) counts only quoted, or as a word before a colon or
    a comparison, not as an article."""
    words = (re.escape(name) for name in names)
    return any(re.search(rf"\b{w}\b" if len(w) > 1 else rf"'{w}'|(?<![\w.]){w}(:| [<>=])",
                         message) for w in words)


def run(command: str, cfg: dict, out: bool = True) -> tuple[int | None, str, int]:
    """(exit code or None past the step budget, stderr, support steps) of
    ``pcflow <command>`` on ``cfg``, with every warning an error.  The run
    works in a temporary directory; without ``out`` it passes no ``--out``,
    so the config's ``outputs`` (or its default) names the directory, and
    the working directory is the temporary one."""
    steps, step = [], pcflow.flow.step_support

    def counted(*args):
        steps.append(1)
        if len(steps) > STEP_BUDGET:
            raise StepBudget
        return step(*args)

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = f"{tmp}/cfg.json"
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(cfg))
        pcflow.flow.step_support = counted
        try:
            with contextlib.redirect_stderr(err), contextlib.chdir(tmp):
                rc = main([command, "--config", path,
                           *(["--out", f"{tmp}/out"] if out else [])])
        except StepBudget:
            rc = None
        finally:
            pcflow.flow.step_support = step
    return rc, err.getvalue(), len(steps)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(COMMANDS), changes=mutations.map(lambda m: [m]))
# an aborted simulate says why
@example(command="simulate", changes=[(("initial_curve",), {"circle": {"R": 2.0}}),
                                      (("p",), 2000), (("horizon",), {"t_end": 0.5})])
# large curves in verify: residuals that underflow, lengths that overflow
@example(command="verify", changes=[(("initial_curve",), {"circle": {"R": 1e65}})])
@example(command="verify", changes=[(("initial_curve",), {"circle": {"R": 1e120}})])
@example(command="sweep-mu0", changes=[(("sweep", "p_values"), [1e6])])
def test_exit_code_contract(command, changes):
    cfg = mutated(changes)
    assert_contract(command, cfg, *run(command, cfg))


# Values of ``outputs`` that only a run without --out reaches: paths below
# the working directory, and paths through the config file itself, which is
# cfg.json there.
OUTPUT_PATHS = [".", "out", "out/sub", "cfg.json", "cfg.json/sub"]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(command=st.sampled_from(COMMANDS),
       value=st.sampled_from(GENERIC + SPECIFIC[("outputs",)] + OUTPUT_PATHS))
# a directory that cannot be made, before the flow and after the runs
@example(command="simulate", value="cfg.json")
@example(command="sweep-mu0", value="cfg.json/sub")
@example(command="noncollapse", value="a\0b")
def test_exit_code_contract_without_out(command, value):
    # without --out, the config's outputs is the directory that is made
    cfg = mutated([(("outputs",), value)])
    assert_contract(command, cfg, *run(command, cfg, out=False))


def assert_contract(command: str, cfg: dict, rc: int | None, err: str, steps: int) -> None:
    """The exit-code contract for a run of ``command`` on ``cfg`` that ended
    with ``rc``, ``err`` on stderr and ``steps`` support steps."""
    if rc is None:          # past the step budget: a long run, not a failure
        return
    assert rc in (0, 1, 2, 3), (rc, err)
    if rc == 1:
        assert err.startswith("config error: "), err
        assert names_a_key(err, key_names(BASE) | key_names(cfg)), err
        # verify and sweep-mu0 make the output directory after their runs
        assert steps == 0 or (command in ("verify", "sweep-mu0")
                              and err.startswith("config error: outputs: [Errno")), err
    elif rc == 2:
        assert err.startswith("runtime error: ") and err.strip() != "runtime error:", err
    else:
        assert err == "", err
