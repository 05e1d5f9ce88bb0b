"""Machine models: parameterised descriptions of the HPCMP systems.

A :class:`~repro.machines.spec.MachineSpec` captures everything the
reproduction knows about a system: processor (clock, peak FP issue, ILP
efficiency), the cache/memory hierarchy (per-level size, streaming bandwidth,
latency, line size, memory-level parallelism, dependent-access throughput),
and the interconnect (latency, bandwidth, collective behaviour).

The registry (:mod:`repro.machines.registry`) instantiates the eleven
systems of the paper's Tables 1 and 2 — the ten prediction targets plus the
NAVO p690 base system used for tracing and as the reference of Equation 1.
Parameters are tuned to the published characteristics of each architecture;
they are *models*, standing in for hardware we do not have (see DESIGN.md §2).

Id resolution lives in the scenario catalog (:mod:`repro.scenarios`):
:func:`get_machine` / :func:`list_machines` here delegate to it, so a
mounted universe's machines resolve through this module too.
"""

from __future__ import annotations

from repro.machines.registry import BASE_SYSTEM, TARGET_SYSTEMS
from repro.machines.spec import (
    MachineSpec,
    MemoryLevelSpec,
    NetworkSpec,
    ProcessorSpec,
)

__all__ = [
    "MachineSpec",
    "MemoryLevelSpec",
    "NetworkSpec",
    "ProcessorSpec",
    "TARGET_SYSTEMS",
    "BASE_SYSTEM",
    "get_machine",
    "list_machines",
]


def get_machine(name: str) -> MachineSpec:
    """Resolve ``name`` through the scenario catalog (built-ins + universe)."""
    from repro.scenarios import get_machine as resolve

    return resolve(name)


def list_machines() -> list[str]:
    """Names of every loaded system, catalog order (built-ins first)."""
    from repro.scenarios import list_machines as loaded

    return list(loaded())
