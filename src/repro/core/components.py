"""Component library factory: Table II as an accelergy-style table.

Builds a :class:`~repro.energy.component.ComponentLibrary` from a
:class:`~repro.core.config.ChipConfig`; the functional tile and chip
(:mod:`repro.core.tile`, :mod:`repro.core.chip`) bill their ledgers against
it.  The architecture simulator (:mod:`repro.arch`) prices from its
:class:`~repro.arch.accelerator.AcceleratorSpec` instead; the weight-write
energies both use come from :mod:`repro.constants`.
"""

from __future__ import annotations

from repro import constants
from repro.core.config import ChipConfig
from repro.energy.action import Action
from repro.energy.component import Component, ComponentLibrary


def build_component_library(config: ChipConfig) -> ComponentLibrary:
    """Translate a chip configuration into billable components.

    Component/action inventory:

    * ``ima.vmm`` — one 1024x256 8-bit VMM (the Table II roll-up).
    * ``dima.write_weight_bit`` / ``sima.write_weight_bit`` — weight update
      cost, SRAM vs ReRAM (the hybrid design's key asymmetry).
    * ``sfu.op`` — one special-function evaluation (exp, max, ...).
    * ``edram.read_bit`` / ``edram.write_bit`` — tile cache traffic.
    * ``crossbar.bit`` — intra-tile DIMA<->SIMA transfers.
    * ``noc.bit_hop`` — inter-tile on-chip network traffic.
    * ``hyperlink.bit`` — off-chip HyperTransport traffic.
    * ``quant.op`` — one requantization (scale + clip) of an output element.
    """
    tile = config.tile
    ima = tile.ima
    library = ComponentLibrary()

    library.add(
        Component(name="ima", area_um2=ima.area_um2, count=config.n_imas)
        .add_action(Action("vmm", energy_pj=ima.vmm_energy_pj, latency_ns=ima.vmm_latency_ns))
        .add_action(
            Action(
                "buffer_256b",
                energy_pj=ima.buffer_energy_pj_per_256b,
                latency_ns=ima.buffer_latency_ns_per_256b,
            )
        )
    )
    # Weight writes: SRAM cluster bit vs ReRAM SET/RESET bit.
    library.add(
        Component(name="dima", count=config.n_tiles * tile.n_dima)
        .add_action(
            Action("write_weight_bit", energy_pj=constants.SRAM_WRITE_PJ_PER_BIT, latency_ns=0.0)
        )
    )
    library.add(
        Component(name="sima", count=config.n_tiles * tile.n_sima)
        .add_action(
            Action("write_weight_bit", energy_pj=constants.RERAM_WRITE_PJ_PER_BIT, latency_ns=0.0)
        )
    )
    library.add(
        Component(
            name="sfu",
            area_um2=tile.sfu_area_um2,
            count=config.n_tiles * tile.sfu_count,
        ).add_action(
            Action("op", energy_pj=tile.sfu_energy_pj, latency_ns=tile.sfu_latency_ns)
        )
    )
    library.add(
        Component(name="edram", area_um2=tile.edram_area_um2, count=config.n_tiles)
        .add_action(Action("read_bit", energy_pj=tile.edram_energy_pj_per_bit))
        .add_action(Action("write_bit", energy_pj=tile.edram_energy_pj_per_bit * 1.15))
    )
    library.add(
        Component(name="crossbar", count=config.n_tiles).add_action(
            Action("bit", energy_pj=tile.crossbar_energy_pj_per_bit)
        )
    )
    library.add(
        Component(name="noc", count=1).add_action(
            Action("bit_hop", energy_pj=config.noc_energy_pj_per_bit)
        )
    )
    library.add(
        Component(
            name="hyperlink",
            area_um2=config.hyperlink_area_um2,
            count=config.hyperlink_count,
        ).add_action(Action("bit", energy_pj=config.hyperlink_energy_pj_per_bit))
    )
    library.add(
        Component(name="quant", count=config.n_tiles).add_action(
            Action("op", energy_pj=0.05, latency_ns=0.0)
        )
    )
    return library
