"""Reference forms that the tests compare the program against, and checks
that only the tests run.  No program path calls these.

* ``diff2_periodic`` allocates its result from an f without ghost values.
  ``pcflow.curves.diff2_periodic``, the in-place stencil over rows that
  carry their own ghost values, must give the same bits in the middle.
* ``chord_config`` is the chord of one grid pair (i, j), which
  ``pcflow.noncollapse.mu_maximizers`` gives only at each curve's maximizing
  pair.
* ``first_order_condition_check``, ``trig_identity_check`` and
  ``trig_residual_profile`` are the per-pair two-point checks at grid
  maximizing pairs; ``verify`` runs the refined trig profile instead.
* The tolerances below judge these checks and the maximizing-pair
  properties of theorem runs, which only the tests evaluate.
* ``dot_fma`` is a 2-vector dot rounded as ``pcflow.noncollapse.dot2``
  rounds it, from exact rationals.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pcflow.errors import DegenerateChord
from pcflow.identities import _arc_derivatives, _trig_sides
from pcflow.noncollapse import TwoPointConfig, chord_maximizers, chords

TOL_ALPHA = 0.02            # rad, slack on the alpha <= pi/4 bound at n = 512
TOL_SYM = 5e-3              # relative, Z symmetry at the maximizing pair
FACTOR_FIRST_ORDER = 1.8    # first-order residual drop per grid doubling
CEIL_GRID_TRIG = 1e-2       # grid-pair trig residual at n = 512


def dot_fma(a, b) -> float:
    """<a, b> of two 2-vectors as RN(a1 b1 + RN(a0 b0 + 0)), computed from
    exact rationals: the rounding of OpenBLAS's ddot on cores where it fuses
    the second multiply-add, which ``a @ b`` gave where the frozen oracles
    were recorded, on every core."""
    a0, a1 = (float(v) for v in a)
    b0, b1 = (float(v) for v in b)
    return float(Fraction(a1) * Fraction(b1) + Fraction(a0 * b0 + 0.0))


def diff2_periodic(f: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order periodic central second derivative along the last axis, so
    each row of a 2-d f gets the same bits as it would alone."""
    g = np.concatenate((f[..., -2:], f, f[..., :2]), axis=-1)
    return (-g[..., 4:] + 16.0 * g[..., 3:-1] - 30.0 * g[..., 2:-2]
            + 16.0 * g[..., 1:-3] - g[..., :-4]) / (12.0 * dx * dx)


def chord_config(g, i: int, j: int) -> TwoPointConfig:
    """The chord configuration of the grid pair (i, j) of ``g``."""
    if i == j:
        raise DegenerateChord("degenerate chord")
    d, w, Z, alpha = (a.tolist() for a in chords(g.x[[i]], g.x[[j]], g.normal[[i]]))
    return TwoPointConfig(i=int(i), j=int(j), d=d[0], w=tuple(w[0]), Z=Z[0],
                          alpha=alpha[0])


def first_order_condition_check(g, mu: float, i: int, j: int) -> tuple[float, float]:
    """Residual of ds kappa = (2/(mu d))(kappa - Z) <w, tangent> at (i, j).

    Returns (residual, scale) where scale = kappa^2 * ds is the expected
    O(grid) magnitude of the discrete critical-point error.
    """
    cfg_pt = chord_config(g, i, j)
    ds_k, _ = _arc_derivatives(g.x, g.kappa)
    w = np.array(cfg_pt.w)
    rhs = (2.0 / (mu * cfg_pt.d)) * (g.kappa[i] - cfg_pt.Z) * float(w @ g.tangent[i])
    residual = abs(float(ds_k[i]) - rhs)
    scale = float(g.kappa[i]) ** 2 * float(g.ds[i])
    return residual, scale


@dataclass(frozen=True)
class TrigCheck:
    lhs: float
    rhs: float          # -2 cos^2(alpha)
    residual: float
    alpha: float


def trig_identity_check(g, i: int, j: int) -> TrigCheck:
    """Check 1 - <ty, tx> + 2 <w, ty - tx><w, tx> = -2 cos^2(alpha) at the
    grid pair (i, j), with the sign of the tangent at j fixed as
    ``pcflow.identities._trig_sides`` fixes it."""
    cfg_pt = chord_config(g, i, j)
    lhs, rhs = _trig_sides(np.array([cfg_pt.w]), g.tangent[[i]], g.tangent[[j]],
                           [cfg_pt.alpha])
    lhs, rhs = float(lhs[0]), float(rhs[0])
    return TrigCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs), alpha=cfg_pt.alpha)


def trig_residual_profile(g) -> float:
    """Max trig-identity residual over per-point maximizing pairs."""
    i, j = chord_maximizers(g)
    return max((trig_identity_check(g, a, b).residual
                for a, b in zip(i.tolist(), j.tolist())), default=0.0)
