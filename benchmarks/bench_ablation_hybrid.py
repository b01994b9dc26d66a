"""Ablation: hybrid SRAM+ReRAM memory vs an all-ReRAM YOCO.

The hybrid design's case: attention's dynamic matrices (K/Q/V) must be
rewritten every inference step.  An all-ReRAM variant pays SET/RESET energy
and 50 ns row writes for them; the hybrid's SRAM DIMAs write for ~2000x
less.  This sweep quantifies the gap on the transformer benchmarks.
"""

import dataclasses

from conftest import emit

from repro import constants
from repro.arch import ArchitectureSimulator, yoco_spec
from repro.experiments.report import format_table
from repro.models import TRANSFORMER_MODELS, get_workload


def _compare():
    hybrid = yoco_spec()
    all_reram = dataclasses.replace(
        hybrid,
        name="yoco-all-reram",
        dynamic_write_pj_per_bit=constants.RERAM_WRITE_PJ_PER_BIT,
        dynamic_write_ns_per_row=50.0,
    )
    rows = []
    for name in TRANSFORMER_MODELS:
        workload = get_workload(name)
        run_h = ArchitectureSimulator(hybrid).run(workload)
        run_r = ArchitectureSimulator(all_reram).run(workload)
        rows.append(
            (
                name,
                run_h.efficiency_tops_per_watt,
                run_r.efficiency_tops_per_watt,
                run_h.efficiency_tops_per_watt / run_r.efficiency_tops_per_watt,
                run_h.throughput_tops / run_r.throughput_tops,
            )
        )
    return rows


def test_hybrid_memory_ablation(benchmark):
    rows = benchmark.pedantic(_compare, rounds=1, iterations=1)
    # The hybrid must win on every transformer, on both axes.
    for name, _, _, ee_gain, tput_gain in rows:
        assert ee_gain > 1.0, name
        assert tput_gain >= 1.0, name
    benchmark.extra_info["ee_gains"] = {r[0]: r[3] for r in rows}
    emit(
        "Ablation — hybrid SRAM+ReRAM vs all-ReRAM",
        format_table(
            ("model", "hybrid TOPS/W", "all-ReRAM TOPS/W", "EE gain", "tput gain"),
            [
                (name, f"{h:.1f}", f"{r:.1f}", f"{eg:.2f}x", f"{tg:.2f}x")
                for name, h, r, eg, tg in rows
            ],
        ),
    )
