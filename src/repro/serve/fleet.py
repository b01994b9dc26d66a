"""Fleet specification: named chip groups behind one contract.

A :class:`FleetSpec` is the one description of the chips that serve: an
ordered sequence of *chip groups* — ``8 x yoco`` next to ``4 x isaac`` —
where every group is backed by the same :class:`ArchitectureSimulator`
contract the serving stack already consumes (``run`` / ``run_batch`` /
``run_layer_pipelined`` plus the ``replication_budget`` /
``overflow_layers`` capacity hooks).  The Fig. 8 baselines plug in as
chip types because they are expressed as :class:`AcceleratorSpec`
parameter sets; :func:`backend_for` is the one place a group's spec is
wrapped into its cost backend.

Chip types are looked up in :data:`CHIP_TYPES` (YOCO plus the ISAAC /
TIMELY / RAELLA re-models), and a fleet can be written as a CLI string::

    parse_fleet("yoco:8,isaac:4")            # counts per chip type
    parse_fleet("yoco:4,isaac:4:pipelined")  # per-group execution mode

Each group may run a different execution mode — ISAAC-style chips are
often best modeled ``pipelined`` while YOCO batches — which is what gives
a mixed fleet its distinct serving personalities worth routing around.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Tuple

from repro.arch.accelerator import AcceleratorSpec, yoco_spec
from repro.arch.simulator import ArchitectureSimulator
from repro.baselines import isaac_spec, raella_spec, timely_spec
from repro.models.workload import WorkloadSpec

#: Per-chip execution modes (see :class:`repro.serve.cluster.Cluster`).
MODES = ("batched", "pipelined")

#: Registered chip types: every spec factory here serves behind the same
#: simulator contract, so any of them can back a fleet group.
CHIP_TYPES: Dict[str, Callable[[], AcceleratorSpec]] = {
    "yoco": yoco_spec,
    "isaac": isaac_spec,
    "timely": timely_spec,
    "raella": raella_spec,
}


def chip_spec(chip_type: str) -> AcceleratorSpec:
    """The registered :class:`AcceleratorSpec` for one chip type."""
    try:
        return CHIP_TYPES[chip_type]()
    except KeyError:
        raise ValueError(
            f"unknown chip type {chip_type!r}; available: {sorted(CHIP_TYPES)}"
        ) from None


@dataclasses.dataclass(frozen=True)
class FleetGroup:
    """One named group of identical chips inside a fleet.

    ``name`` is the group's identity for placement, routing and reporting
    (it defaults to ``chip_type``); ``chip_type`` records which design the
    group is built from.  Groups of the same chip type may coexist under
    distinct names (e.g. a batched and a pipelined YOCO pool).
    """

    chip_type: str
    n_chips: int
    spec: AcceleratorSpec
    mode: str = "batched"
    name: str = ""

    def __post_init__(self) -> None:
        if not self.chip_type:
            raise ValueError("chip_type must be non-empty")
        if self.n_chips < 1:
            raise ValueError("a fleet group needs at least one chip")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; available: {MODES}")
        if not self.name:
            object.__setattr__(self, "name", self.chip_type)

    @property
    def peak_watts(self) -> float:
        """Whole-group draw with every chip computing flat out.

        The ceiling the power governor's per-group envelope is set
        against; a group's idle/leakage floor is a configured fraction of
        this (see :class:`repro.serve.power.PowerConfig.idle_fraction`).
        """
        return self.n_chips * self.spec.peak_watts

    def replication_budget(self, workload: WorkloadSpec) -> int:
        """Data-parallel replica ceiling for one model in this group.

        Each chip hosts at most one copy of a model (replicas exist for
        throughput, and a second same-chip copy buys none), so the budget
        is the group size.  The placer must never exceed it — asserted by
        the hypothesis property suite.
        """
        return self.n_chips


def fleet_group(
    chip_type: str, n_chips: int, mode: str = "batched", name: str = ""
) -> FleetGroup:
    """Build a group from a registered chip type."""
    return FleetGroup(
        chip_type=chip_type,
        n_chips=n_chips,
        spec=chip_spec(chip_type),
        mode=mode,
        name=name,
    )


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """An ordered fleet of named chip groups.

    Global chip ids run group by group in declaration order, so a
    single-group fleet numbers its chips ``0..n-1``.
    """

    groups: Tuple[FleetGroup, ...]

    def __post_init__(self) -> None:
        groups = tuple(self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise ValueError("a fleet needs at least one chip group")
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate fleet group names: {names}")

    @property
    def n_chips(self) -> int:
        return sum(g.n_chips for g in self.groups)

    @property
    def heterogeneous(self) -> bool:
        return len(self.groups) > 1

    @property
    def chip_groups(self) -> Tuple[int, ...]:
        """Group index of every global chip id, in id order."""
        return tuple(
            gi for gi, g in enumerate(self.groups) for _ in range(g.n_chips)
        )

    @property
    def label(self) -> str:
        """Human-readable composition, e.g. ``8 x yoco + 4 x isaac``."""
        return " + ".join(f"{g.n_chips} x {g.name}" for g in self.groups)


def homogeneous_fleet(
    spec: AcceleratorSpec, n_chips: int, mode: str = "batched"
) -> FleetSpec:
    """``n_chips`` chips of one ``spec``, as a one-group fleet.

    The group is named after ``spec.name``, so
    ``homogeneous_fleet(yoco_spec(), 4) == parse_fleet("yoco:4")``; it is
    how a caller holding an :class:`AcceleratorSpec` (a Fig. 8 baseline,
    a swept variant) names its fleet, and what the CLI's
    ``--chips N --mode M`` means.
    """
    return FleetSpec(
        (FleetGroup(chip_type=spec.name, n_chips=n_chips, spec=spec, mode=mode),)
    )


def parse_fleet(text: str) -> FleetSpec:
    """Parse ``"yoco:8,isaac:4[:mode]"`` into a :class:`FleetSpec`.

    Each comma-separated entry is ``chip_type:count`` with an optional
    third ``:mode`` field (one of :data:`MODES`).  Repeated chip types get
    ``-2``, ``-3``... name suffixes so every group name stays unique.
    """
    entries = [part.strip() for part in text.split(",") if part.strip()]
    if not entries:
        raise ValueError(f"empty fleet spec {text!r}")
    groups = []
    seen: Dict[str, int] = {}
    for entry in entries:
        fields = entry.split(":")
        if len(fields) not in (2, 3):
            raise ValueError(
                f"fleet entry {entry!r} must be chip_type:count[:mode]"
            )
        chip_type = fields[0].strip()
        try:
            count = int(fields[1])
        except ValueError:
            raise ValueError(
                f"fleet entry {entry!r} has a non-integer chip count"
            ) from None
        mode = fields[2].strip() if len(fields) == 3 else "batched"
        seen[chip_type] = seen.get(chip_type, 0) + 1
        name = (
            chip_type if seen[chip_type] == 1 else f"{chip_type}-{seen[chip_type]}"
        )
        groups.append(fleet_group(chip_type, count, mode=mode, name=name))
    return FleetSpec(tuple(groups))


def backend_for(
    group: FleetGroup, weights_resident: bool = True
) -> ArchitectureSimulator:
    """The group's cost backend behind the serving contract.

    Every chip type — YOCO and the baseline re-models alike — is served
    through this one wrapper, so the ``run_batch(w, 1) == run(w)``
    invariant and the capacity hooks hold uniformly across the fleet
    (asserted for the whole zoo by ``tests/test_zoo_contract.py``).
    """
    return ArchitectureSimulator(group.spec, weights_resident=weights_resident)
