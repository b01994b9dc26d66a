"""Cross-module property-based tests (hypothesis).

Invariants that must hold for *any* input, spanning the analog arithmetic,
the mapper, and the quantized GEMM engine.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.variation import VariationModel
from repro.arch.accelerator import yoco_spec
from repro.arch.mapper import map_layer
from repro.baselines import isaac_spec, timely_spec
from repro.core.array import InChargeArray
from repro.core.engine import YocoMatmulEngine
from repro.models.workload import GemmShape, LayerKind, LayerSpec


def _ideal_array(seed=0):
    return InChargeArray(variation=VariationModel.ideal(), seed=seed)


class TestArrayLinearity:
    """The ideal in-charge VMM is the bilinear dot product it claims."""

    @given(st.integers(0, 2**31), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_superposition_in_inputs(self, seed, divisor):
        rng = np.random.default_rng(seed)
        array = _ideal_array()
        weights = rng.integers(0, 256, (128, 32))
        array.program_weights(weights)
        x1 = rng.integers(0, 128 // divisor, 128)
        x2 = rng.integers(0, 128 // divisor, 128)
        v_sum = array.ideal_vmm_voltages(x1 + x2)
        assert np.allclose(
            v_sum,
            array.ideal_vmm_voltages(x1) + array.ideal_vmm_voltages(x2),
            atol=1e-12,
        )

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_permuting_rows_preserves_the_mac(self, seed):
        """Charge sharing is row-order-invariant (it is a sum)."""
        rng = np.random.default_rng(seed)
        array = _ideal_array()
        weights = rng.integers(0, 256, (128, 32))
        x = rng.integers(0, 256, 128)
        perm = rng.permutation(128)
        array.program_weights(weights)
        v = array.vmm_voltages(x)
        array.program_weights(weights[perm])
        v_perm = array.vmm_voltages(x[perm])
        assert np.allclose(v, v_perm, atol=1e-12)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_weights(self, seed):
        """Raising any weight never lowers any MAC voltage."""
        rng = np.random.default_rng(seed)
        array = _ideal_array()
        weights = rng.integers(0, 255, (128, 32))
        x = rng.integers(0, 256, 128)
        array.program_weights(weights)
        before = array.vmm_voltages(x)
        bumped = weights.copy()
        bumped[int(rng.integers(0, 128)), int(rng.integers(0, 32))] += 1
        array.program_weights(bumped)
        after = array.vmm_voltages(x)
        assert np.all(after >= before - 1e-12)


class TestMapperInvariants:
    @given(
        st.integers(1, 64),
        st.integers(1, 5000),
        st.integers(1, 2000),
        st.integers(1, 64),
        st.sampled_from(["yoco", "isaac", "timely"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_invariants(self, m, k, n, repeat, accel):
        spec = {"yoco": yoco_spec, "isaac": isaac_spec, "timely": timely_spec}[accel]()
        layer = LayerSpec(
            "l", LayerKind.FC, GemmShape(m, k, n),
            static_weights=True, repeat=repeat,
        )
        plan = map_layer(layer, spec)
        # Utilization is a fraction of provisioned MACs.
        assert 0.0 < plan.utilization <= 1.0 + 1e-9
        # The plan covers all the work: provisioned MACs >= active MACs.
        provisioned = plan.vmm_count // m * spec.macs_per_vmm
        assert provisioned >= layer.macs // m
        # VMM count scales linearly in M.
        assert plan.vmm_count % m == 0

    @given(st.integers(1, 2048), st.integers(1, 512))
    @settings(max_examples=50, deadline=None)
    def test_packing_never_increases_vmms(self, k, n):
        spec = yoco_spec()
        packed = map_layer(
            LayerSpec("p", LayerKind.ATTENTION_SCORE, GemmShape(4, k, n),
                      static_weights=False, repeat=8),
            spec,
        )
        unpacked_vmms = 4 * packed.k_tiles * packed.n_tiles * 8
        assert packed.vmm_count <= unpacked_vmms


class TestEngineAlgebra:
    @given(st.integers(0, 2**31), st.integers(1, 300), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_column_block_consistency(self, seed, k, n):
        """Concatenating weight blocks equals concatenating results."""
        rng = np.random.default_rng(seed)
        engine = YocoMatmulEngine(mode="ideal")
        x = rng.integers(0, 256, (2, k))
        w1 = rng.integers(0, 256, (k, n))
        w2 = rng.integers(0, 256, (k, n))
        joint = engine.matmul_unsigned(x, np.concatenate([w1, w2], axis=1))
        split = np.concatenate(
            [engine.matmul_unsigned(x, w1), engine.matmul_unsigned(x, w2)], axis=1
        )
        assert np.array_equal(joint, split)

    @given(st.integers(0, 2**31), st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_row_batch_consistency(self, seed, k):
        """Batched GEMM equals stacking single-row GEMMs."""
        rng = np.random.default_rng(seed)
        engine = YocoMatmulEngine(mode="ideal")
        x = rng.integers(0, 256, (3, k))
        w = rng.integers(0, 256, (k, 5))
        batched = engine.matmul_unsigned(x, w)
        rows = np.concatenate(
            [engine.matmul_unsigned(x[i : i + 1], w) for i in range(3)], axis=0
        )
        assert np.array_equal(batched, rows)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_fast_mode_error_bounded_by_codes(self, seed):
        """Fast-mode error never exceeds a few readout codes per K-tile."""
        rng = np.random.default_rng(seed)
        engine = YocoMatmulEngine(mode="fast", seed=seed, readout="full")
        k = int(rng.integers(1, 1500))
        x = rng.integers(0, 256, (2, k))
        w = rng.integers(0, 256, (k, 8))
        estimate = engine.matmul_unsigned(x, w)
        exact = (x.astype(np.int64) @ w).astype(float)
        k_tiles = -(-k // 1024)
        rows_per_tile = min(-(-k // 128) * 128, 1024)
        code_unit = rows_per_tile * 255
        assert np.abs(estimate - exact).max() <= 4.0 * k_tiles * code_unit
