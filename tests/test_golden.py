"""Golden outputs: the four subcommands on small configs, pinned by sha256.

Each output file is hashed with its 16-hex ``config_hash`` value replaced by
a fixed placeholder, and the ``config_hash`` strings are pinned on their own,
so a change to the config schema shows apart from a change to the numbers.
The digests cover exact float output: JSON floats in the shortest repr that
round-trips, CSV and SVG floats as ``%.17g``.  A different numpy build or
CPU may change the last digits of some values: numpy picks the kernels of
some ufuncs (``**``, ``arcsin``, ``exp``, ``arctan2``, ``log2``) by the CPU
features it finds at import, and on x86 its AVX-512 kernels round a few
percent of inputs differently in the last bit from its AVX2 ones.  The
digests were recorded with AVX-512, and ``test_digests_hold_without_avx512``
checks that they hold without it.  No output depends on BLAS, and
``test_digests_hold_under_other_blas_settings`` checks that they hold with
numpy's OpenBLAS on one thread or on an older core.  To re-record after an
intended change, run ``python tests/test_golden.py`` and paste its output
over ``GOLDEN``.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pcflow
from pcflow.cli import EXIT_OK, main

PLACEHOLDER = b"<config_hash>"
HASH_RE = re.compile(rb'config_hash(?:=|": ")([0-9a-f]{16})')

CONFIGS = {
    "simulate": {
        "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0, "phase": 0.4}},
        "p": 2.0, "n": 64, "horizon": {"t_end": 0.01}, "monitor_every": 5,
    },
    "noncollapse": {
        "initial_curve": {"fourier": {"R": 1.0, "modes": [[3, 0.05, 0.3]]}},
        "p": 2.0, "n": 64,
    },
    "verify": {
        "initial_curve": {"ellipse": {"a": 1.3, "b": 1.0}},
        "p": 2.0, "n": 128,
    },
    "sweep-mu0": {
        "initial_curve": {"circle": {"R": 1.0}},
        "p": 2.0,
        "sweep": {"p_values": [1.5, 3.0], "family": "ellipse",
                  "grid": [1.05, 1.15], "n": 64, "horizon_frac": 0.3},
    },
}


def run_command(command, tmp_path):
    """Run one subcommand on its config; return the output directory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIGS[command]))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    return out


def run_and_digest(command, tmp_path):
    """Run one subcommand; return (config_hash, {file name: masked sha256})."""
    out = run_command(command, tmp_path)
    hashes, digests = set(), {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        found = HASH_RE.search(data)
        assert found, f"{path.name} carries no config_hash"
        hashes.add(found.group(1).decode())
        masked = data.replace(found.group(1), PLACEHOLDER)
        digests[path.name] = hashlib.sha256(masked).hexdigest()
    assert len(hashes) == 1, f"outputs carry several config hashes: {hashes}"
    (cfg_hash,) = hashes
    return cfg_hash, digests


GOLDEN = {
    "noncollapse": ("174c960b6535f3c8", {
        "curve.svg": "f2283700749fc38922f05a832d762fb20e242a1c9fe376bd02c3662dd35d1a85",
        "noncollapse.json": "1bfca41ab17b72e4c9b3a659505169782ada07e065a589ef9fb19aa7f2cb75a2",
    }),
    "simulate": ("5fccf33a491aa1f5", {
        "curve_0.csv": "ba9d85f8e9409dc3ca5736e527a3ecc96d86ffae09708ee1812d0d3f61943f44",
        "curve_0.svg": "5ac354b15d2d1adfbf1e23202897bd03718584f2ed098bf6297c343e83fc36f0",
        "curve_1.csv": "904118b6d1d17bbe90952528ee1ecda5ff21abdce344783805caf39fdff33285",
        "curve_1.svg": "cc8fc96329ca34bc63c1f8913c98d205780a5762d1a580df61d40648f768a1ac",
        "curve_2.csv": "4356e8d5eeb821d32167c73695eef0e9ec97f1d3e57a39abba24b7a59e88b692",
        "curve_2.svg": "9bb625607d87a0a1996495f4e15a1c7e5bd37e3543917c71041a4f7d6555c02a",
        "curve_3.csv": "ea4cc520917fa953ab9031dae612813f70e119231122d30b90d4cdca25222231",
        "curve_3.svg": "f9364173084d588f6e042a4320de8c102e46914cd3ce0c034c38139f01ba4b80",
        "curve_4.csv": "eb25d6b9d163c2bf00ee5c48db9c5113f1807216b37892998332a1fde175c61c",
        "curve_4.svg": "685bd47d68370e2824b1bc3e425f71793eece6a4a03f07e93d22420f43906509",
        "curve_5.csv": "512b397199276a88a1bf53d0edf50c3cc3107e0691feb00b7305fc4dec0933f7",
        "curve_5.svg": "bf71b423becc3b800ee835706a1a4e8068ab03220b27f123880f318ded8e372c",
        "noncollapse_0.json": "c89f630b7b1a2aa684c17752e55e84cfd486ab6936298f137d728d84181671c2",
        "noncollapse_1.json": "0a1cbf3aa7837bb6d2587640392be58cd5b12ed89a94de9001f1f248c296d68e",
        "noncollapse_2.json": "17b69f0d54116316ae36261c02cf8dafa015a2c89abfd386dbc5f56d307984e0",
        "noncollapse_3.json": "d749437fa90039ce4af2c4c3617770473982b9cd551ed74cee5c9828b170b2d9",
        "noncollapse_4.json": "22fe88c3a01c5d0447e66a99fd1403e9c0fe5a3fd875b1b5ecdf9c52d27db8c0",
        "noncollapse_5.json": "133826797d837f3e9e7aed8bfe96f0a9def67fa607443487f6b8bbb4d22fcb65",
        "summary.json": "9b7b7145b8a6cabb4b45623ab706b2b36798bce25b2200af621470c42980ff63",
        "timeseries.csv": "4d6cdc79c2d2d66b777c093a74fbdfb0ec7b8b07126ba2cb5738e56584c81bd9",
    }),
    "sweep-mu0": ("5c7aa5c8c748fed5", {
        "mu0_sweep.csv": "35bb181dc4695f37d83febbc5b67036b8ece5bb865ba1630ed6563afdaf6415d",
    }),
    "verify": ("d26c04f08fd32c03", {
        "verify.json": "494a2b7fcb932dba3f2152539c3e551c31265971650cf011e9cedb7c003e076f",
    }),
}


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_outputs_match_golden(command, tmp_path):
    cfg_hash, digests = run_and_digest(command, tmp_path)
    want_hash, want_digests = GOLDEN[command]
    assert sorted(digests) == sorted(want_digests)
    changed = [name for name in digests if digests[name] != want_digests[name]]
    assert not changed, f"outputs differ from the golden record: {changed}"
    assert cfg_hash == want_hash


def _dispatch_targets_above_v3():
    """numpy's x86 dispatch targets above X86_V3 (AVX2) that this CPU has;
    skip the calling test, saying why, where there are none.  Any name in
    NPY_DISABLE_CPU_FEATURES that is not a dispatch target makes the numpy
    import fail, so only these are disabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("this numpy exposes no __cpu_dispatch__/__cpu_features__")
    if "X86_V3" not in __cpu_dispatch__:
        pytest.skip(f"this numpy build has no X86_V3 dispatch group: {__cpu_dispatch__}")
    above = __cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1:]
    targets = [t for t in above if __cpu_features__.get(t)]
    if not targets:
        pytest.skip(f"this CPU has none of numpy's dispatch targets above X86_V3: {above}")
    return targets


def test_digests_hold_without_avx512():
    # the re-record entry in a fresh interpreter whose numpy dispatches no
    # kernel above AVX2 must print exactly GOLDEN
    disabled = " ".join(_dispatch_targets_above_v3())
    src = str(Path(pcflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    out = subprocess.run([sys.executable, __file__], check=True, capture_output=True,
                         text=True, env=env)
    assert ast.literal_eval(out.stdout) == GOLDEN


# Settings of numpy's bundled OpenBLAS (a DYNAMIC_ARCH build, which picks
# its kernels by the CPU at load): one thread, and an older core whose
# kernels use no FMA.  The pre-scan's are the only BLAS calls on a path to
# an output, and they only choose which rows the exact kernel scans.
BLAS_SETTINGS = {
    "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "older-core": {"OPENBLAS_CORETYPE": "Sandybridge"},
}

# Prints (core name, threads) of numpy's bundled OpenBLAS, or None where
# numpy bundles none that reports them.
_BLAS_PROBE = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
state = None
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        try:
            core = getattr(lib, f"{prefix}_get_corename{suffix}")
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        except AttributeError:
            continue
        core.restype = ctypes.c_char_p
        state = (core().decode(), threads())
        break
print(repr(state))
"""


def _blas_state(env):
    """(core name, threads) of numpy's OpenBLAS in a fresh interpreter
    with the environment ``env``, or None."""
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], check=True,
                         capture_output=True, text=True, env=env)
    return ast.literal_eval(out.stdout)


@pytest.mark.parametrize("setting", sorted(BLAS_SETTINGS))
def test_digests_hold_under_other_blas_settings(setting):
    # the golden digests and the theorem samples' digest, in a fresh
    # interpreter whose OpenBLAS runs with another thread count or core
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(Path(pcflow.__file__).resolve().parents[1]),
           "PYTHONWARNINGS": "error::RuntimeWarning"}
    changed = {**env, **BLAS_SETTINGS[setting]}
    before, after = _blas_state(env), _blas_state(changed)
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS that reports its core and threads")
    if after == before:
        pytest.skip(f"{BLAS_SETTINGS[setting]} has no effect here: OpenBLAS runs "
                    f"core {before[0]} with {before[1]} thread(s) either way")
    tests = ["tests/test_golden.py::test_outputs_match_golden",
             "tests/test_identities.py::TestTheoremSamples::test_samples_digest"]
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *tests], capture_output=True, text=True, env=changed, cwd=root)
    assert out.returncode == 0, out.stdout[-3000:]
    assert re.search(r"^5 passed in ", out.stdout, re.MULTILINE), out.stdout[-3000:]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_json_outputs_are_strict_json(command, tmp_path):
    # NaN and Infinity are Python's extensions; jq and other readers reject them
    for path in sorted(run_command(command, tmp_path).glob("*.json")):
        json.loads(path.read_text(), parse_constant=_reject_constant)


if __name__ == "__main__":
    import pprint
    import tempfile
    from pathlib import Path

    record = {}
    for command in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            record[command] = run_and_digest(command, Path(tmp))
    pprint.pprint(record, width=100)
