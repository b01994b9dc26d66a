"""Seed lanes: disjoint within every admitted run, stable across processes.

:mod:`repro.seeds` decides every random stream's seed.  The property
tests build all the lane seeds one run can draw on, for each admitted
composition, and check that no two streams share a seed.  A composition
rule lifted later (for example tenants with closed-loop clients) must
add its case here.
"""

import collections
import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import seeds
from repro.models.zoo import all_workloads
from repro.nn import zoo
from repro.nn.backend import FloatBackend, InferenceContext
from repro.serve import FleetConfig, ServingConfig, WorkloadConfig, simulate_serving

#: A run's models are distinct zoo workloads (``Cluster`` refuses
#: duplicates), so this bounds every model index.
N_MODELS = len(all_workloads())

run_seeds = st.integers(0, 2**31)
model_counts = st.integers(1, N_MODELS)


def _disjoint(*lanes):
    values = np.concatenate([np.ravel(lane) for lane in lanes])
    return len(np.unique(values)) == len(values)


class TestLanesAreDisjoint:
    @given(seed=run_seeds, n_models=model_counts)
    @settings(max_examples=50, deadline=None)
    def test_open_loop_with_seqlens_and_decode(self, seed, n_models):
        m = np.arange(n_models)
        arrivals = seeds.arrival(seed, 0, m)
        assert _disjoint(arrivals, seeds.seqlen(seed, 0, m), seeds.decode(arrivals))

    @given(seed=run_seeds, n_tenants=st.integers(1, 5_000), n_models=model_counts)
    @settings(max_examples=50, deadline=None)
    def test_tenants_with_seqlens(self, seed, n_tenants, n_models):
        t, m = np.meshgrid(np.arange(n_tenants), np.arange(n_models))
        assert _disjoint(seeds.arrival(seed, t, m), seeds.seqlen(seed, t, m))

    @given(
        seed=run_seeds,
        n_clients=st.integers(1, 20_000),
        n_requests=st.integers(1, 400_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_closed_loop_clients_with_seqlens(self, seed, n_clients, n_requests):
        assert _disjoint(
            seeds.session_think(seed, np.arange(n_clients)),
            seeds.session_seqlen(seed, np.arange(n_requests)),
        )

    @given(
        seed=run_seeds,
        n_regions=st.integers(1, 104_728),
        n_models=model_counts,
    )
    @settings(max_examples=20, deadline=None)
    def test_regions(self, seed, n_regions, n_models):
        i, m = np.meshgrid(np.arange(n_regions), np.arange(n_models))
        assert _disjoint(seeds.region_arrival(seed, i, m))


def test_closed_loop_think_and_seqlen_streams_never_share_a_seed(monkeypatch):
    # Session 114 used to think on the seed that request 2,765 drew its
    # sequence length from; this run issues ~10k requests on 200 sessions.
    drawn = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        drawn.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    simulate_serving(ServingConfig(
        workload=WorkloadConfig(
            models=("mobilebert",), clients=200, think_time_ms=0.5,
            seqlen_dist="lognormal", duration_s=0.2, seed=0,
        ),
        fleet=FleetConfig(fleet="yoco:8"),
    ))
    assert len(drawn) > 9_000
    shared = [s for s, n in collections.Counter(drawn).items() if n > 1]
    assert shared == []


def _layer_names(model, x):
    names = []

    class Recording(FloatBackend):
        def matmul(self, name, x, w):
            names.append(name)
            return super().matmul(name, x, w)

    model.infer(x, InferenceContext(backend=Recording()))
    return names


def test_layers_of_one_model_get_distinct_seeds():
    cases = [
        (zoo.build_cnn_deep(), np.zeros((1, 1, 16, 16))),
        (zoo.build_transformer_small(), np.zeros((1, 24), dtype=int)),
    ]
    for model, x in cases:
        names = set(_layer_names(model, x))
        assert len(names) >= 10
        for seed in (0, 1, 7):
            assert len({seeds.named_layer(seed, n) for n in names}) == len(names)


_REPLAY_SCRIPT = """
import hashlib
import numpy as np
from repro.arch.deploy import ChipBackend
from repro.nn.backend import InferenceContext, YocoBackend
from repro.nn.datasets import synthetic_images
from repro.nn.zoo import build_cnn_small

rng = np.random.default_rng(0)
x = rng.normal(size=(8, 64))
digest = hashlib.sha256()
backend = YocoBackend(mode="fast", seed=0)
for name in ("fc0", "fc1"):
    digest.update(backend.matmul(name, x, rng.normal(size=(64, 16))).tobytes())
ds = synthetic_images(n_train=8, n_test=16, seed=0)
model = build_cnn_small(n_classes=ds.n_classes, seed=0)
logits = model.infer(ds.x_test, InferenceContext(backend=ChipBackend(seed=0)))
digest.update(logits.tobytes())
print(digest.hexdigest())
"""


def test_seeded_inference_replays_across_processes():
    src = os.path.dirname(os.path.dirname(seeds.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _REPLAY_SCRIPT],
            env=env, capture_output=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
