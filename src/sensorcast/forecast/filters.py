"""The one recursion every fitter runs: an all-pole filter on lfilter's kernel.

Each fitter turns differences into one-step errors by inverting an MA
polynomial, e = x / (1 + theta_1 B + theta_2 B^2), which is
``scipy.signal.lfilter([1.0], a, x)`` with a = [1, theta_1, theta_2].  A
fit runs that filter tens (smoothing) to thousands (ARIMA) of times in
sequence over a few dozen samples, where lfilter's Python wrapper (array-API
dispatch, ``atleast_1d``, ``asarray``, size checks) costs about twice its C
kernel.  ``all_pole`` calls the kernel with exactly the arguments lfilter
passes it once those checks are done, so the output is lfilter's bit for
bit; a test holds it to that, so a scipy release that changes the private
kernel fails loudly rather than moving fits.

The kernel's extension, ``_sigtools``, is loaded by path from scipy's
installed ``signal`` directory.  Importing it as
``scipy.signal._sigtools`` would first run ``scipy/signal/__init__.py``,
which loads scipy.stats, scipy.interpolate, the window functions and the
array-API layer: about 1.3 s of a 1.5 s ``import sensorcast``, paid by every
process start, for one C function.  Loaded by path, neither ``scipy`` nor
``scipy.signal`` is imported.  CPython keeps one copy of a single-phase
extension's functions, so the kernel is the one ``scipy.signal`` uses,
whichever is loaded first.  If a scipy release moves or renames the
extension, importing this module raises ImportError.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["all_pole"]


def _load_sigtools():
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("all_pole needs scipy, which is not installed")
    signal_dirs = [os.path.join(d, "signal") for d in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.signal._sigtools", signal_dirs)
    if spec is None:
        raise ImportError(f"no scipy.signal._sigtools extension in {signal_dirs}")
    previous = sys.modules.get(spec.name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Creating the module registered it in sys.modules under its dotted
    # name.  Put back what was there, so that scipy.signal, imported before
    # or after, keeps its own ``_sigtools`` on the same cached C functions.
    if previous is None:
        sys.modules.pop(spec.name, None)
    else:
        sys.modules[spec.name] = previous
    return module


_linear_filter = _load_sigtools()._linear_filter

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
