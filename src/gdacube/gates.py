"""Smooth gate functions used to encode circuit logic in the utility landscape.

Three C^1 piecewise-polynomial switches:

* ``nor_gate`` is 1 when its argument (a sum of two logical levels) is at
  most 1/4 and 0 once the argument reaches 1/2, so it outputs "true"
  exactly when both inputs are low.
* ``purify_gate`` rises from 0 to 1 on [5/12, 7/12]; evaluating it at a
  level shifted by +1/4 and -1/4 yields the two outputs of a duplication
  gate, at least one of which is always saturated.
* ``distance_threshold`` converts a squared distance into a logical level:
  0 up to 3m, 1 from 3m+1 on, with a cubic ramp in between.

All functions accept floats or numpy arrays and return the same shape.
Derivative suprema are 6, 9 and 3/2 respectively; tests pin these.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "nor_gate",
    "nor_gate_prime",
    "purify_gate",
    "purify_gate_prime",
    "distance_threshold",
    "distance_threshold_prime",
]


def _as_finite(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("gate argument must be finite")
    return arr


def _switch(arr: np.ndarray, lo: float, hi: float, below: float, above: float, ramp):
    """``below`` where arr <= lo, ``above`` where arr >= hi, ``ramp(arr)`` between.

    The ramp polynomial is evaluated only on the elements strictly inside
    (lo, hi). A 0-d input returns a float and keeps numpy scalar
    arithmetic, whose ``pow`` may differ in the last bit from the array
    loop's, so scalar callers see the values they always saw.
    """
    if arr.ndim == 0:
        return below if arr <= lo else above if arr >= hi else float(ramp(arr))
    out = np.where(arr <= lo, below, above)
    inside = arr > lo
    inside &= arr < hi
    if inside.any():
        out[inside] = ramp(arr[inside])
    return out


def _nor_ramp(z):
    t = z - 0.25
    return 128.0 * t**3 - 48.0 * t**2 + 1.0


def _nor_ramp_prime(z):
    t = z - 0.25
    return 384.0 * t**2 - 96.0 * t


def _purify_ramp(z):
    t = z - 5.0 / 12.0
    return 144.0 * t**2 * (2.0 - 3.0 * z)


def _purify_ramp_prime(z):
    t = z - 5.0 / 12.0
    return 288.0 * t * (2.0 - 3.0 * z) - 432.0 * t**2


def nor_gate(z):
    """High (1) when z <= 1/4, low (0) when z >= 1/2, cubic ramp between."""
    return _switch(_as_finite(z), 0.25, 0.5, 1.0, 0.0, _nor_ramp)


def nor_gate_prime(z):
    """Derivative of ``nor_gate``; bounded by 6 in absolute value."""
    return _switch(_as_finite(z), 0.25, 0.5, 0.0, 0.0, _nor_ramp_prime)


def purify_gate(z):
    """0 when z <= 5/12, 1 when z >= 7/12, cubic ramp between."""
    return _switch(_as_finite(z), 5.0 / 12.0, 7.0 / 12.0, 0.0, 1.0, _purify_ramp)


def purify_gate_prime(z):
    """Derivative of ``purify_gate``; bounded by 9 in absolute value."""
    return _switch(_as_finite(z), 5.0 / 12.0, 7.0 / 12.0, 0.0, 0.0, _purify_ramp_prime)


def _check_m(m: int) -> int:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"threshold width parameter must be an integer >= 1, got {m!r}")
    return int(m)


def distance_threshold(z, m: int):
    """0 when z <= 3m, 1 when z >= 3m+1, smoothstep -2t^3+3t^2 between."""
    m = _check_m(m)

    def ramp(zz):
        t = zz - 3.0 * m
        return -2.0 * t**3 + 3.0 * t**2

    return _switch(_as_finite(z), 3.0 * m, 3.0 * m + 1.0, 0.0, 1.0, ramp)


def distance_threshold_prime(z, m: int):
    """Derivative of ``distance_threshold``; bounded by 3/2 in absolute value."""
    m = _check_m(m)

    def ramp(zz):
        t = zz - 3.0 * m
        return -6.0 * t**2 + 6.0 * t

    return _switch(_as_finite(z), 3.0 * m, 3.0 * m + 1.0, 0.0, 0.0, ramp)
