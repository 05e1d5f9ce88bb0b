"""Tests for the scenario catalog layer (:mod:`repro.scenarios`).

Four contracts carry the refactor and are pinned here:

* the built-in catalog is *behaviour-preserving* — it serves the very
  registry/suite objects the study always used (digest pinned);
* TOML round-trips are *identity-preserving* — ``repr`` (and therefore
  every content fingerprint) survives dump + load, including int-vs-float
  distinctions, stride histograms and comm events (hypothesis);
* generated universes are *reproducible* — same ``(family, seed, cells)``
  gives identical digests, in-process and across interpreter runs;
* the mount layer is *safe* — collisions with built-ins are rejected,
  unknown ids suggest mounted names, and unmount restores the built-ins.
"""

import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.model import ApplicationModel, BasicBlock, CommEvent
from repro.core.errors import UnknownIdError
from repro.machines.spec import (
    MachineSpec,
    MemoryLevelSpec,
    NetworkSpec,
    ProcessorSpec,
)
from repro.memory.patterns import StrideHistogram
from repro.network.model import CollectiveKind
from repro.scenarios import (
    CATALOG,
    Universe,
    builtin_digest,
    content_fingerprint,
    get_application,
    get_machine,
    list_applications,
    list_machines,
    mount_universe,
    unmount_universe,
)
from repro.scenarios.generate import FAMILIES, generate_universe
from repro.scenarios.spec_io import dumps_universe, load_universe, loads_universe

#: Content digest of the frozen built-in catalog (11 machines + 5 apps).
#: This moving means the paper's scenario data changed — bump knowingly.
BUILTIN_DIGEST = "58d598ab3350c7c26d5d08904ea0c786"


@pytest.fixture(autouse=True)
def _pristine_catalog():
    """Every test starts and ends with only the built-ins mounted."""
    unmount_universe()
    yield
    unmount_universe()


# ----------------------------------------------------------------------
# built-in equivalence
# ----------------------------------------------------------------------
def test_builtin_digest_pinned():
    assert builtin_digest() == BUILTIN_DIGEST


def test_catalog_serves_registry_machine_instances():
    from repro.machines.registry import MACHINES

    assert list_machines() == list(MACHINES)
    for name, spec in MACHINES.items():
        assert get_machine(name) is spec


def test_catalog_applications_match_suite():
    from repro.apps.suite import APPLICATIONS
    from repro.apps.suite import get_application as suite_get

    assert list_applications() == list(APPLICATIONS)
    for label in APPLICATIONS:
        assert repr(get_application(label)) == repr(suite_get(label))


def test_replica_semantics_preserved():
    replica = get_application("AVUS-standard@3")
    assert replica.label == "AVUS-standard@3"
    base = get_application("AVUS-standard")
    assert repr(replica) != repr(base)
    with pytest.raises(KeyError, match="bad replica suffix"):
        get_application("AVUS-standard@x")
    with pytest.raises(KeyError, match="bad replica suffix"):
        get_application("AVUS-standard@0")
    with pytest.raises(UnknownIdError):
        get_application("AVUS-standar@2")


def test_unknown_ids_raise_with_nearest():
    with pytest.raises(UnknownIdError) as exc_info:
        get_machine("NAVO_69")
    assert "NAVO_690" in exc_info.value.nearest
    with pytest.raises(UnknownIdError) as exc_info:
        get_application("AVUS-larg")
    assert "AVUS-large" in exc_info.value.nearest


# ----------------------------------------------------------------------
# package wrappers
# ----------------------------------------------------------------------
def test_package_wrappers_route_through_catalog():
    import repro.apps
    import repro.machines

    universe = generate_universe("mixed", 5, 30)
    mount_universe(universe.ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the supported API must not warn
        assert repro.machines.get_machine(universe.machines[0].name)
        assert repro.apps.get_application(universe.applications[0].label)
        assert universe.machines[0].name in repro.machines.list_machines()
        assert universe.applications[0].label in repro.apps.list_applications()


# ----------------------------------------------------------------------
# TOML round-trips (hypothesis)
# ----------------------------------------------------------------------
def _finite(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


_names = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="_-. "),
    min_size=1,
    max_size=16,
)

#: TOML strings are sequences of Unicode *scalar values*: lone surrogates
#: cannot survive a dump/load cycle by the format's own definition.
_descriptions = st.text(
    alphabet=st.characters(exclude_categories=("Cs",)), max_size=40
)

_strides = st.builds(
    StrideHistogram.normalised,
    unit=_finite(0.05, 10.0),
    short=_finite(0.0, 10.0),
    random=_finite(0.0, 10.0),
    short_stride_elems=st.integers(2, 16),
)


@st.composite
def _machines(draw):
    processor = ProcessorSpec(
        clock_ghz=draw(_finite(0.1, 5.0)),
        flops_per_cycle=draw(st.sampled_from([1, 2, 4, 4.0, 8])),
        ilp_efficiency=draw(_finite(0.05, 1.0)),
        dependent_fp_efficiency=draw(_finite(0.01, 1.0)),
    )
    sizes = sorted(
        draw(
            st.lists(
                _finite(1024.0, 1e9), min_size=1, max_size=3, unique=True
            )
        )
    )
    levels = [
        MemoryLevelSpec(
            name=f"L{i + 1}",
            size_bytes=size,
            bandwidth=draw(_finite(1e8, 1e12)),
            latency=draw(_finite(1e-9, 1e-6)),
            line_bytes=draw(st.sampled_from([32, 64, 128])),
            mlp=draw(_finite(1.0, 16.0)),
            dependent_stream_factor=draw(_finite(0.05, 1.0)),
        )
        for i, size in enumerate(sizes)
    ]
    levels.append(
        MemoryLevelSpec(
            name="MEM",
            size_bytes=float("inf"),
            bandwidth=draw(_finite(1e8, 1e11)),
            latency=draw(_finite(1e-8, 1e-5)),
        )
    )
    network = NetworkSpec(
        name=draw(_names),
        latency=draw(_finite(1e-7, 1e-4)),
        bandwidth=draw(_finite(1e7, 1e10)),
        collective_efficiency=draw(_finite(0.1, 1.0)),
        contention_factor=draw(_finite(1.0, 3.0)),
    )
    return MachineSpec(
        name=draw(_names),
        architecture=draw(_names),
        vendor=draw(_names),
        model=draw(_names),
        cpus=draw(st.integers(1, 65536)),
        processor=processor,
        memory_levels=tuple(levels),
        network=network,
        overlap_factor=draw(_finite(0.0, 1.0)),
        noise_level=draw(_finite(0.0, 0.5)),
        description=draw(_descriptions),
    )


_comms = st.builds(
    CommEvent,
    name=_names,
    kind=st.sampled_from(["p2p", *CollectiveKind]),
    count=st.one_of(st.integers(1, 10_000), _finite(0.5, 1e4)),
    size_scale=_finite(1.0, 1e7),
    size_exponent=_finite(0.0, 1.0),
    neighbors=st.integers(1, 26),
)


@st.composite
def _applications(draw):
    blocks = tuple(
        BasicBlock(
            name=f"b{i}",
            fp_per_cell=draw(_finite(0.1, 500.0)),
            loads_per_cell=draw(_finite(0.1, 500.0)),
            stores_per_cell=draw(_finite(0.0, 200.0)),
            stride=draw(_strides),
            ws_scale=draw(_finite(0.1, 10.0)),
            ws_exponent=draw(_finite(0.0, 1.0)),
            dependency_fraction=draw(_finite(0.0, 1.0)),
            chase_fraction=draw(_finite(0.0, 1.0)),
            fp_ilp=draw(_finite(0.0, 1.0)),
        )
        for i in range(draw(st.integers(1, 3)))
    )
    cpu_counts = tuple(
        sorted(draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4, unique=True)))
    )
    return ApplicationModel(
        name=draw(_names.filter(lambda s: "@" not in s)),
        testcase=draw(_names.filter(lambda s: "@" not in s)),
        description=draw(_descriptions),
        cells=draw(st.integers(1000, 10**9)),
        bytes_per_cell=draw(st.one_of(st.integers(8, 4096), _finite(8.0, 4096.0))),
        timesteps=draw(st.integers(1, 10_000)),
        cpu_counts=cpu_counts,
        blocks=blocks,
        comms=tuple(draw(st.lists(_comms, max_size=3))),
        serial_fraction=draw(_finite(0.0, 0.2)),
        imbalance=draw(_finite(0.0, 0.5)),
    )


@settings(max_examples=25, deadline=None)
@given(machine=_machines())
def test_machine_toml_roundtrip_is_identity(machine):
    text = dumps_universe((machine,), ())
    back = loads_universe(text, ref="t").machines[0]
    assert repr(back) == repr(machine)
    assert content_fingerprint(back) == content_fingerprint(machine)


@settings(max_examples=25, deadline=None)
@given(app=_applications())
def test_application_toml_roundtrip_is_identity(app):
    text = dumps_universe((), (app,))
    back = loads_universe(text, ref="t").applications[0]
    assert repr(back) == repr(app)
    assert content_fingerprint(back) == content_fingerprint(app)


def test_builtin_catalog_toml_roundtrip_is_identity():
    machines = tuple(CATALOG.machine_map().values())
    applications = tuple(CATALOG.application_map().values())
    text = dumps_universe(machines, applications)
    universe = loads_universe(text, ref="builtin-snapshot")
    assert [repr(m) for m in universe.machines] == [repr(m) for m in machines]
    assert [repr(a) for a in universe.applications] == [repr(a) for a in applications]


def test_load_universe_reads_files(tmp_path):
    universe = generate_universe("numa", 3, 20)
    path = tmp_path / "u.toml"
    path.write_text(dumps_universe(universe.machines, universe.applications))
    loaded = load_universe(path)
    assert loaded.digest() == universe.digest()
    assert loaded.ref == str(path)


# ----------------------------------------------------------------------
# generator families
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_families_generate_valid_universes(family):
    universe = generate_universe(family, 11, 60)
    assert universe.cell_count() >= 60
    assert len(universe.machines) >= 2 and len(universe.applications) >= 2
    # Constructors re-validate on the TOML path: a clean round-trip means
    # every generated spec satisfies the models' own invariants.
    text = dumps_universe(universe.machines, universe.applications)
    assert loads_universe(text, ref="t").digest() == universe.digest()
    # Generated cpu grids must fit inside every generated machine.
    min_cpus = min(m.cpus for m in universe.machines)
    assert all(max(a.cpu_counts) <= min_cpus for a in universe.applications)


def test_generation_is_deterministic_in_process():
    a = generate_universe("mixed", 42, 100)
    b = generate_universe("mixed", 42, 100)
    assert a.digest() == b.digest()
    assert generate_universe("mixed", 43, 100).digest() != a.digest()
    assert generate_universe("hotnode", 42, 100).digest() != a.digest()


def test_generation_is_deterministic_cross_process():
    code = (
        "from repro.scenarios.generate import generate_universe;"
        "print(generate_universe('mixed', 42, 100).digest())"
    )
    runs = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        for _ in range(2)
    }
    assert runs == {generate_universe("mixed", 42, 100).digest()}


def test_unknown_family_raises():
    with pytest.raises(UnknownIdError) as exc_info:
        generate_universe("mixd", 0, 10)
    assert "mixed" in exc_info.value.nearest


# ----------------------------------------------------------------------
# mounting
# ----------------------------------------------------------------------
def test_mount_adds_ids_and_unmount_restores():
    before_machines = list_machines()
    universe = mount_universe("mixed:7:40")
    assert CATALOG.universe_ref == "mixed:7:40"
    for machine in universe.machines:
        assert get_machine(machine.name) is not None
    assert list_machines()[: len(before_machines)] == before_machines
    unmount_universe()
    assert list_machines() == before_machines
    with pytest.raises(UnknownIdError):
        get_machine(universe.machines[0].name)


def test_mount_same_ref_is_idempotent():
    first = mount_universe("mixed:7:40")
    second = mount_universe("mixed:7:40")
    assert first.digest() == second.digest()
    assert CATALOG.universe_ref == "mixed:7:40"


def test_mount_rejects_builtin_collisions():
    clash = Universe(
        ref="clash",
        machines=(get_machine("NAVO_690"),),
        applications=(),
    )
    with pytest.raises(ValueError, match="NAVO_690"):
        CATALOG.mount(clash)
    # The failed mount must not have left partial state behind.
    assert CATALOG.universe is None


def test_unknown_id_suggests_mounted_names():
    mount_universe("mixed:7:40")
    with pytest.raises(UnknownIdError) as exc_info:
        get_machine("GEN-mixed-7-M00")
    assert any(n.startswith("GEN-mixed-7-M00") for n in exc_info.value.nearest)
