"""YOCO reproduction: a hybrid in-memory computing architecture with 8-bit
in-situ multiply arithmetic (DAC 2025).

Package map
-----------
``repro.core``
    The paper's contribution: in-charge computing arrays, time-domain
    accumulation, IMAs, the Table II configuration (with the one price of
    a power-gated VMM, ``gated_vmm_energy_pj``) and the quantized GEMM
    engine.
``repro.analog`` / ``repro.energy``
    Behavioral substrates: variation & converter metrics; energy, time
    and area unit helpers.
``repro.nn`` / ``repro.models``
    Trainable NN substrate with analog-error backends; the 10-model
    benchmark workload zoo.
``repro.arch`` / ``repro.baselines``
    Architecture simulator, attention pipeline, and the ISAAC / RAELLA /
    TIMELY baseline models.
``repro.experiments``
    One driver per table/figure of the paper's evaluation.

Quickstart
----------
>>> from repro.core import InChargeArray
>>> import numpy as np
>>> array = InChargeArray(seed=0)
>>> array.program_weights(np.full((128, 32), 200))
>>> volts = array.vmm_voltages(np.full(128, 100))
"""

from repro import constants
from repro._exports import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "core": (
        "ArrayConfig",
        "ChipConfig",
        "DetailedIMA",
        "FastIMA",
        "IMAConfig",
        "InChargeArray",
        "TileConfig",
        "YocoMatmulEngine",
        "paper_config",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__ = ["constants", *__all__]
