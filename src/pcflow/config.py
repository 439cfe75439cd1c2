"""Experiment configuration: JSON parsing, validation, hashing."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

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

_TOP_KEYS = {
    "initial_curve", "p", "n", "sigma", "horizon", "monitor_every",
    "outputs", "seed", "sweep",
}
_SWEEP_KEYS = {"p_values", "family", "grid", "n", "horizon_frac"}
SWEEP_FAMILIES = ("ellipse", "fourier")
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

    def __post_init__(self):
        # here, so a seed from the config and one from --seed meet one rule
        if self.seed < 0:
            raise ConfigInvalid(f"seed: must be >= 0, got {self.seed}")


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
    curve = raw["initial_curve"]
    if not isinstance(curve, dict) or len(curve) != 1:
        raise ConfigInvalid("initial_curve: must be a single-key object")

    if "p" not in raw:
        raise ConfigInvalid("p: required")
    p = _number(raw, "p")
    if not p > 1.0:
        raise ConfigInvalid("p: must exceed 1")

    n = grid_size(_number(raw, "n", 512, integral=True), "n")
    sigma = _number(raw, "sigma", 0.4)
    if not (0.0 < sigma <= 0.9):
        raise ConfigInvalid("sigma: must lie in (0, 0.9]")
    monitor_every = _number(raw, "monitor_every", 50, integral=True)
    if monitor_every < 1:
        raise ConfigInvalid("monitor_every: must be >= 1")
    seed = _number(raw, "seed", 0, integral=True)

    horizon = raw.get("horizon")
    if horizon is not None:
        if (not isinstance(horizon, dict)
                or len(horizon) != 1
                or next(iter(horizon)) not in ("t_end", "until")):
            raise ConfigInvalid("horizon: must be {\"t_end\": T} or {\"until\": f}")
        key, val = next(iter(horizon.items()))
        if not finite_number(val, f"horizon.{key}") >= 0:
            raise ConfigInvalid(f"horizon.{key}: must be nonnegative")
        if key == "until" and not val <= 0.9:
            raise ConfigInvalid("horizon.until: must be <= 0.9")

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
            values = sweep[key]
            if not isinstance(values, list) or not values:
                raise ConfigInvalid(f"sweep.{key}: must be a nonempty list of numbers")
            for v in values:
                finite_number(v, f"sweep.{key}")
        # checked here, so that a bad entry fails before any run steps
        if not all(v > 1.0 for v in sweep["p_values"]):
            raise ConfigInvalid("sweep.p_values: must exceed 1")
        if sweep["family"] not in SWEEP_FAMILIES:
            raise ConfigInvalid(f"sweep.family: must be one of {list(SWEEP_FAMILIES)}")
        # sweep-mu0 reports the last passing parameter as the largest
        if not all(a < b for a, b in zip(sweep["grid"], sweep["grid"][1:])):
            raise ConfigInvalid("sweep.grid: must be strictly ascending")
        grid_size(_number(sweep, "n", 128, integral=True, prefix="sweep."), "sweep.n")
        horizon_frac = _number(sweep, "horizon_frac", 0.5, prefix="sweep.")
        if not 0.0 < horizon_frac <= 0.9:
            raise ConfigInvalid("sweep.horizon_frac: must lie in (0, 0.9]")

    outputs = raw.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ConfigInvalid("outputs: must be a path string")

    return ExperimentConfig(
        initial_curve=curve, p=float(p), n=n, sigma=float(sigma),
        horizon=horizon, monitor_every=monitor_every, outputs=outputs,
        seed=seed, sweep=sweep,
    )


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
