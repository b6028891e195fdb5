"""What ``import sensorcast`` costs a fresh process, and what it leaves.

The package loads lfilter's C kernel by path (``forecast.filters``), not
through the ``scipy.signal`` package, whose import pulls in scipy.stats,
scipy.interpolate and the array-API layer and takes most of a second.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import scipy.signal

from sensorcast.forecast import filters

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_scipy_signal_nor_scipy_stats():
    # A fresh interpreter, because this one has imported both.
    probe = ("import sys, sensorcast; print(sorted(m for m in ('scipy', 'scipy.signal', "
             "'scipy.signal._sigtools', 'scipy.stats') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_loading_the_kernel_keeps_scipy_signals_own_module():
    own = sys.modules["scipy.signal._sigtools"]
    kernel = filters._load_sigtools()._linear_filter
    assert sys.modules["scipy.signal._sigtools"] is own is scipy.signal._sigtools
    assert kernel is own._linear_filter is filters._linear_filter
