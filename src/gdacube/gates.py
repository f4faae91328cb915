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

Each switch also has a value-and-slope form, ``slope=True``, which returns
``(value, slope)`` from one call: the input is checked for finiteness
once, each element is classified once, and both ramp polynomials are
evaluated on the same elements, those strictly inside the ramp. Its
slope equals the ``*_prime`` function bit for bit, so the gradient needs
one call per switch instead of two. The ``*_prime`` functions remain for
callers that want the slope alone.
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
    # count_nonzero is the exact test of .all() without its Python wrapper
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("gate argument must be finite")
    return arr


def _switch(z, lo: float, hi: float, below: float, above: float, ramp, slope_ramp=None):
    """``below`` where z <= lo, ``above`` where z >= hi, ``ramp(t, z)`` between.

    Both ramps take the offset ``t = z - lo``, computed once, and z. With
    ``slope_ramp`` the result is ``(value, slope)``, the slope being 0
    outside (lo, hi) and ``slope_ramp(t, z)`` inside. The ramps are
    evaluated only on the elements strictly inside (lo, hi). A 0-d input
    returns floats and keeps numpy scalar arithmetic, whose ``pow`` may
    differ in the last bit from the array loop's, so scalar callers see
    the values they always saw.
    """
    arr = _as_finite(z)
    if arr.ndim == 0:
        if lo < arr < hi:
            t = arr - lo
            value = float(ramp(t, arr))
            return value if slope_ramp is None else (value, float(slope_ramp(t, arr)))
        value = below if arr <= lo else above
        return value if slope_ramp is None else (value, 0.0)
    out = np.where(arr <= lo, below, above)
    inside = arr > lo
    inside &= arr < hi
    if slope_ramp is None:
        if np.count_nonzero(inside):
            ramped = arr[inside]
            out[inside] = ramp(ramped - lo, ramped)
        return out
    slope = np.zeros(out.shape)
    if np.count_nonzero(inside):
        ramped = arr[inside]
        t = ramped - lo
        out[inside] = ramp(t, ramped)
        slope[inside] = slope_ramp(t, ramped)
    return out, slope


def _nor_ramp(t, z):
    return 128.0 * t**3 - 48.0 * t**2 + 1.0


def _nor_ramp_prime(t, z):
    return 384.0 * t**2 - 96.0 * t


def _purify_ramp(t, z):
    return 144.0 * t**2 * (2.0 - 3.0 * z)


def _purify_ramp_prime(t, z):
    return 288.0 * t * (2.0 - 3.0 * z) - 432.0 * t**2


def nor_gate(z, slope: bool = False):
    """High (1) when z <= 1/4, low (0) when z >= 1/2, cubic ramp between.

    ``slope=True`` returns ``(value, nor_gate_prime(z))`` from one call.
    """
    return _switch(z, 0.25, 0.5, 1.0, 0.0, _nor_ramp, _nor_ramp_prime if slope else None)


def nor_gate_prime(z):
    """Derivative of ``nor_gate``; bounded by 6 in absolute value."""
    return _switch(z, 0.25, 0.5, 0.0, 0.0, _nor_ramp_prime)


def purify_gate(z, slope: bool = False):
    """0 when z <= 5/12, 1 when z >= 7/12, cubic ramp between.

    ``slope=True`` returns ``(value, purify_gate_prime(z))`` from one call.
    """
    return _switch(z, 5.0 / 12.0, 7.0 / 12.0, 0.0, 1.0, _purify_ramp,
                   _purify_ramp_prime if slope else None)


def purify_gate_prime(z):
    """Derivative of ``purify_gate``; bounded by 9 in absolute value."""
    return _switch(z, 5.0 / 12.0, 7.0 / 12.0, 0.0, 0.0, _purify_ramp_prime)


def _check_m(m: int) -> int:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"threshold width parameter must be an integer >= 1, got {m!r}")
    return int(m)


def _threshold_ramp(t, z):
    return -2.0 * t**3 + 3.0 * t**2


def _threshold_ramp_prime(t, z):
    return -6.0 * t**2 + 6.0 * t


def distance_threshold(z, m: int, slope: bool = False):
    """0 when z <= 3m, 1 when z >= 3m+1, smoothstep -2t^3+3t^2 between.

    ``slope=True`` returns ``(value, distance_threshold_prime(z, m))``
    from one call.
    """
    m = _check_m(m)
    return _switch(z, 3.0 * m, 3.0 * m + 1.0, 0.0, 1.0, _threshold_ramp,
                   _threshold_ramp_prime if slope else None)


def distance_threshold_prime(z, m: int):
    """Derivative of ``distance_threshold``; bounded by 3/2 in absolute value."""
    m = _check_m(m)
    return _switch(z, 3.0 * m, 3.0 * m + 1.0, 0.0, 0.0, _threshold_ramp_prime)
