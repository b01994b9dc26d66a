"""Golden guard for the Fig. 6 circuit experiments.

The Monte-Carlo of Fig. 6(d), the transfer curves of Fig. 6(b, c), the
error stack of Fig. 6(e) and the PVT corner sweep are pinned bit for bit
by sha256 digests: of each sample or curve array's raw bytes, and of the
``repr`` of each frozen result record (``repr`` of a float round-trips).
A faster array path must replay these exactly.

Regenerate the goldens only on an intentional behaviour change::

    PYTHONPATH=src python tests/test_fig6_golden.py --write
"""

import dataclasses
import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.experiments.extensions import corner_sweep
from repro.experiments.fig6 import Fig6bcResult, run_fig6bc, run_fig6d, run_fig6e

DIGESTS = pathlib.Path(__file__).parent / "data" / "golden_fig6_digests.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=None)
def _fig6bc():
    return run_fig6bc(seed=0)


def _compute(name: str) -> str:
    if name.startswith("fig6d_seed"):
        seed = int(name[len("fig6d_seed"):])
        return _sha(run_fig6d(2000, seed=seed).samples.tobytes())
    if name.startswith("fig6bc_"):
        return _sha(getattr(_fig6bc(), name[len("fig6bc_"):]).tobytes())
    if name == "fig6e_seed0":
        return _sha(repr(run_fig6e(seed=0)).encode())
    if name == "corner_sweep_n60_seed0":
        return _sha(repr(corner_sweep(n_samples=60, seed=0)).encode())
    raise KeyError(name)


NAMES = (
    ["fig6d_seed0", "fig6d_seed42"]
    + [f"fig6bc_{f.name}" for f in dataclasses.fields(Fig6bcResult)]
    + ["fig6e_seed0", "corner_sweep_n60_seed0"]
)


@pytest.mark.parametrize("name", NAMES)
def test_fig6_golden(name):
    golden = json.loads(DIGESTS.read_text())
    assert _compute(name) == golden[name]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_fig6_golden.py --write")
    DIGESTS.write_text(
        json.dumps({name: _compute(name) for name in NAMES}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(NAMES)} digests to {DIGESTS}")
