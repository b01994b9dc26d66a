"""Shared fixtures for the test suite."""

import faulthandler
import os

import numpy as np
import pytest

from repro.analog.variation import VariationModel
from repro.core.array import InChargeArray
from repro.core.config import ArrayConfig


# A test that runs this long is hung: the watchdog dumps every thread's
# traceback and ends the run, so a loop that never ends fails instead of
# stalling the suite.  The slowest test (``--durations=10``) takes about
# 6 s on a 2-core x86 host, so 120 s leaves a 20x margin for slow runners.
WATCHDOG_S = 120.0
_watchdog_fd = None


def pytest_configure(config):
    # A copy of the real stderr, taken before output capture swallows it.
    global _watchdog_fd
    _watchdog_fd = os.dup(2)


def pytest_unconfigure(config):
    global _watchdog_fd
    if _watchdog_fd is not None:
        os.close(_watchdog_fd)
        _watchdog_fd = None


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_watchdog_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def ideal_variation():
    return VariationModel.ideal()


@pytest.fixture
def typical_variation():
    return VariationModel.typical()


@pytest.fixture
def small_array_config():
    """A 2-bit 4x8 array (the Fig. 2 didactic example, scaled)."""
    return ArrayConfig(
        rows=4,
        cols=8,
        input_bits=2,
        weight_bits=2,
        cb_cols=2,
        row_group_sizes=(2, 2, 4),
        row_driver_count=4,
        tda_count=4,
    )


@pytest.fixture
def ideal_array(ideal_variation):
    return InChargeArray(variation=ideal_variation, seed=7)


@pytest.fixture
def typical_array(typical_variation):
    return InChargeArray(variation=typical_variation, seed=7)
