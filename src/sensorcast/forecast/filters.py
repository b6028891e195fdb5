"""The one recursion every fitter runs: an all-pole filter on lfilter's kernel.

Each fitter turns differences into one-step errors by inverting an MA
polynomial, e = x / (1 + theta_1 B + theta_2 B^2), which is
``scipy.signal.lfilter([1.0], a, x)`` with a = [1, theta_1, theta_2].  A
fit runs that filter hundreds (smoothing) to thousands (ARIMA) of times in
sequence over a few dozen samples, where lfilter's Python wrapper (array-API
dispatch, ``atleast_1d``, ``asarray``, size checks) costs about twice its C
kernel.  ``all_pole`` calls the kernel with exactly the arguments lfilter
passes it once those checks are done, so the output is lfilter's bit for
bit; a test holds it to that, so a scipy release that changes the private
kernel fails loudly rather than moving fits.
"""

from __future__ import annotations

import numpy as np
from scipy.signal._sigtools import _linear_filter

__all__ = ["all_pole"]

_ONE = np.ones(1)
_ONE.flags.writeable = False


def all_pole(a, x: np.ndarray) -> np.ndarray:
    """``lfilter([1.0], a, x)``: y_t = x_t - a_1 y_{t-1} - ... - a_k y_{t-k}.

    ``a`` is a sequence of two or more floats (lfilter takes another path for
    one); ``x`` is a 1-D or 2-D float64 array, which may be a strided view.
    A 2-D ``x`` is filtered along its last axis, each row as its own 1-D
    call would be, bit for bit.  Returns a new array.
    """
    return _linear_filter(_ONE, a, x, -1)
