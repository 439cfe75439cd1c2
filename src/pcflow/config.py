"""Experiment configuration: JSON parsing, validation, hashing."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields

from .errors import ConfigInvalid

# CPython's built-in SHA-256, as its random module takes it: hashlib loads
# OpenSSL, about 3.4 MB of memory, for the one digest pcflow computes.
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.11 and older
    except ImportError:
        from hashlib import sha256

_SWEEP_KEYS = {"p_values", "family", "grid", "n", "horizon_frac"}
SWEEP_FAMILIES = ("ellipse", "fourier")
# The optional keys of a sweep section, with their values when absent.
SWEEP_DEFAULTS = {"n": 128, "horizon_frac": 0.5}
# The range of each flow parameter, with the rule's text: the one rule
# that ``parse_config``, ``flow.FlowConfig`` and the theorem runs check.
_RANGES = {
    "p": (lambda v: v > 1.0, "must exceed 1"),
    "sigma": (lambda v: 0.0 < v <= 0.9, "must lie in (0, 0.9]"),
    "monitor_every": (lambda v: v >= 1, "must be >= 1"),
    "horizon_frac": (lambda v: 0.0 < v <= 0.9, "must lie in (0, 0.9]"),
}
# The parameters of each curve kind: (required, optional).
_CURVE_KEYS = {"circle": ({"R"}, set()), "ellipse": ({"a", "b"}, {"phase"}),
               "fourier": ({"R", "modes"}, set())}
GRID_MIN, GRID_MAX = 64, 65536
GRID_SIZES = (GRID_MAX // GRID_MIN).bit_length()   # powers of two in [GRID_MIN, GRID_MAX]


@dataclass(frozen=True)
class ExperimentConfig:
    initial_curve: dict
    p: float
    n: int = 512
    sigma: float = 0.4
    horizon: dict | None = None
    monitor_every: int = 50
    outputs: str | None = None
    seed: int = 0
    sweep: dict | None = None


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; unknown keys rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config key(s): {sorted(unknown)}")

    if "initial_curve" not in raw:
        raise ConfigInvalid("initial_curve: required")
    curve = curve_spec(raw["initial_curve"])

    # the defaults are those of ExperimentConfig's fields
    p = in_range("p", _number(raw, "p"))
    n = grid_size(_number(raw, "n", ExperimentConfig.n, integral=True), "n")
    sigma = in_range("sigma", _number(raw, "sigma", ExperimentConfig.sigma))
    monitor_every = _number(raw, "monitor_every", ExperimentConfig.monitor_every, integral=True)
    in_range("monitor_every", monitor_every)
    seed = _number(raw, "seed", ExperimentConfig.seed, integral=True)
    if seed < 0:
        raise ConfigInvalid(f"seed: must be >= 0, got {seed}")

    horizon = raw.get("horizon")
    if horizon is not None:
        if (not isinstance(horizon, dict)
                or len(horizon) != 1
                or next(iter(horizon)) not in ("t_end", "until")):
            raise ConfigInvalid("horizon: must be {\"t_end\": T} or {\"until\": f}")
        key, val = next(iter(horizon.items()))
        if not finite_number(val, f"horizon.{key}") >= 0:
            raise ConfigInvalid(f"horizon.{key}: must be nonnegative")
        if key == "until" and val != 0:      # 0 runs no step, as t_end 0 does
            in_range("horizon_frac", val, "horizon.until")
        horizon = {key: float(val) + 0.0}     # + 0.0 turns -0.0 into 0.0

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigInvalid("sweep: must be an object")
        unknown = set(sweep) - _SWEEP_KEYS
        if unknown:
            raise ConfigInvalid(f"sweep: unknown key(s) {sorted(unknown)}")
        for req in ("p_values", "family", "grid"):
            if req not in sweep:
                raise ConfigInvalid(f"sweep.{req}: required")
        for key in ("p_values", "grid"):
            if not isinstance(sweep[key], list):
                raise ConfigInvalid(f"sweep.{key}: must be a nonempty list of numbers")
            for v in sweep[key]:
                finite_number(v, f"sweep.{key}")
        # checked here, so that a bad entry fails before any run steps
        check_sweep(sweep["p_values"], sweep["family"], sweep["grid"])
        sweep_n = grid_size(_number(sweep, "n", SWEEP_DEFAULTS["n"], integral=True,
                                    prefix="sweep."), "sweep.n")
        sweep_frac = in_range("horizon_frac", _number(
            sweep, "horizon_frac", SWEEP_DEFAULTS["horizon_frac"], prefix="sweep."),
            "sweep.horizon_frac")
        # one normal form, defaults filled and a -0.0 in the grid 0.0, so that
        # equal sweeps hash equal (horizon_frac > 0 cannot be -0.0)
        sweep = {"p_values": [float(v) for v in sweep["p_values"]], "family": sweep["family"],
                 "grid": [float(v) + 0.0 for v in sweep["grid"]], "n": sweep_n,
                 "horizon_frac": float(sweep_frac)}

    outputs = raw.get("outputs")
    # a NUL ends a path in the OS, so no directory can be named by one
    if outputs is not None and (not isinstance(outputs, str) or "\0" in outputs):
        raise ConfigInvalid("outputs: must be a path string")

    return ExperimentConfig(
        initial_curve=curve, p=float(p), n=n, sigma=float(sigma),
        horizon=horizon, monitor_every=monitor_every, outputs=outputs,
        seed=seed, sweep=sweep,
    )


def curve_spec(spec) -> dict:
    """The normal form of the curve spec ``spec``, which must be one of

    * ``{"circle": {"R": R}}``
    * ``{"ellipse": {"a": a, "b": b, "phase": phi}}`` (phase optional)
    * ``{"fourier": {"R": R, "modes": [[k, amp, phase], ...]}}``

    with finite numbers, R > 0, a >= b > 0 and each k a whole number >= 2:
    the one curve-spec rule, of ``parse_config`` and ``curves.construct_curve``.
    In the normal form every number is a float, with -0.0 as 0.0 (``+ 0.0``
    maps -0.0 to 0.0 and keeps every other float), each mode's k an int and
    an omitted phase 0.0, so that specs of one curve hash equal."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigInvalid("initial_curve: must be a single-key object")
    (kind, params), = spec.items()
    if not isinstance(params, dict):
        raise ConfigInvalid(f"curve spec '{kind}' must map to a parameter dict")
    if kind not in _CURVE_KEYS:
        raise ConfigInvalid(f"unknown curve kind '{kind}'")
    required, optional = _CURVE_KEYS[kind]
    missing, unknown = required - set(params), set(params) - required - optional
    if missing:
        raise ConfigInvalid(f"{kind}: missing parameter(s) {sorted(missing)}")
    if unknown:
        raise ConfigInvalid(f"{kind}: unknown parameter(s) {sorted(unknown)}")
    out = {key: float(finite_number(params[key], f"{kind}.{key}")) + 0.0
           for key in sorted(params) if key != "modes"}
    if kind == "ellipse":
        out.setdefault("phase", 0.0)
        if not out["a"] >= out["b"] > 0.0:
            raise ConfigInvalid("ellipse requires a >= b > 0")
    elif out["R"] <= 0.0:
        name = "circle radius" if kind == "circle" else "fourier base radius"
        raise ConfigInvalid(f"{name} must be positive")
    if kind == "fourier":
        if not isinstance(params["modes"], (list, tuple)):
            raise ConfigInvalid("fourier.modes: must be a list of [k, amp, phase]")
        out["modes"] = []
        for mode in params["modes"]:
            if not isinstance(mode, (list, tuple)) or len(mode) != 3:
                raise ConfigInvalid("fourier.modes: each mode must be [k, amp, phase]")
            k = finite_number(mode[0], "fourier mode number", integral=True)
            amp = float(finite_number(mode[1], "fourier mode amplitude")) + 0.0
            phi = float(finite_number(mode[2], "fourier mode phase")) + 0.0
            if k < 2:
                raise ConfigInvalid("fourier mode number must be >= 2")
            out["modes"].append([k, amp, phi])
    return {kind: out}


def in_range(rule: str, v, name: str | None = None):
    """``v`` if it lies in the range of the flow parameter ``rule`` (a key of
    ``_RANGES``), else ConfigInvalid naming ``name``, by default ``rule``."""
    ok, text = _RANGES[rule]
    if not ok(v):
        raise ConfigInvalid(f"{name or rule}: {text}")
    return v


def check_sweep(p_values: list, family, grid: list) -> None:
    """The rules of a sweep of ``family``'s curves over the numbers ``grid``
    at each exponent of the numbers ``p_values``: ``parse_config`` checks them
    before any run steps, and ``identities.mu0_sweep`` for direct callers."""
    for key, values in (("p_values", p_values), ("grid", grid)):
        if not values:
            raise ConfigInvalid(f"sweep.{key}: must be a nonempty list of numbers")
    for p in p_values:
        in_range("p", p, "sweep.p_values")
    if family not in SWEEP_FAMILIES:
        raise ConfigInvalid(f"sweep.family: must be one of {list(SWEEP_FAMILIES)}")
    # sweep-mu0 reports the last passing parameter as the largest
    if not all(a < b for a, b in zip(grid, grid[1:])):
        raise ConfigInvalid("sweep.grid: must be strictly ascending")


def finite_number(v, name: str, integral: bool = False):
    """``v`` if it is a real number (not a bool) within the float range;
    ``integral`` also takes whole floats such as 128.0 and returns an int."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ConfigInvalid(f"{name}: must be a number")
    try:
        finite = math.isfinite(v)
    except OverflowError:        # an int beyond the float range
        finite = False
    if not finite or (integral and not float(v).is_integer()):
        raise ConfigInvalid(f"{name}: must be a finite {'integer' if integral else 'number'}")
    return int(v) if integral else v


def _number(raw: dict, key: str, default=None, integral: bool = False,
            prefix: str = ""):
    """``raw[key]`` checked by ``finite_number``, or ``default`` if absent."""
    if key not in raw:
        if default is None:
            raise ConfigInvalid(f"{prefix}{key}: required")
        return default
    return finite_number(raw[key], prefix + key, integral)


def grid_size(n, name: str = "grid size") -> int:
    """``n`` if it is an integer power of two in [GRID_MIN, GRID_MAX]: the
    rule for every support grid, the config's ``n`` and ``sweep.n`` included."""
    if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
            or not GRID_MIN <= n <= GRID_MAX or n & (n - 1)):
        raise ConfigInvalid(
            f"{name}: must be a power of two in [{GRID_MIN}, {GRID_MAX}], got {n}")
    return int(n)


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable hash of the canonical config JSON, for output provenance."""
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:16]
