"""The frozen built-in catalog: the paper's own machines and applications.

Apart from the ``repro.machines``/``repro.apps`` package ``__init__``
modules (which re-export their constants and factories), this is the only
module in the package allowed to import the builders
(:mod:`repro.machines.registry`, :mod:`repro.apps.suite`) —
``scripts/check_layering.py`` enforces that.  It freezes their output into
plain data the catalog serves:

* machines are the registry's own spec objects (same instances, so
  :meth:`~repro.machines.spec.MachineSpec.fingerprint` digests — and every
  fingerprint-keyed executor/probe cache — are untouched by the refactor);
* applications are each suite factory called exactly once; the factories
  are pure, so the single instance is content-identical to every instance
  the old per-call path produced, and the frozen dataclass is safe to
  share.

``BUILTIN_DIGEST`` pins the whole built-in catalog's content; the test
suite asserts it never drifts, which is the machine-checkable form of the
refactor's "behavior-preserving" claim (the 1305-record golden study pin
is the end-to-end form).
"""

from __future__ import annotations

import hashlib

from repro.apps.model import ApplicationModel
from repro.apps.suite import APPLICATIONS
from repro.machines.registry import BASE_SYSTEM, MACHINES, TARGET_SYSTEMS
from repro.machines.spec import MachineSpec

__all__ = [
    "BASE_SYSTEM",
    "TARGET_SYSTEMS",
    "builtin_applications",
    "builtin_machines",
    "builtin_digest",
]


def builtin_machines() -> dict[str, MachineSpec]:
    """Name -> spec for the paper's eleven systems, registry order."""
    return dict(MACHINES)


def builtin_applications() -> dict[str, ApplicationModel]:
    """Label -> model for the five TI-05 test cases, study order."""
    return {label: factory() for label, factory in APPLICATIONS.items()}


def builtin_digest() -> str:
    """Content digest over every built-in entry, in catalog order."""
    from repro.scenarios.catalog import content_fingerprint

    h = hashlib.blake2b(digest_size=16)
    for machine in builtin_machines().values():
        h.update(machine.fingerprint().encode())
        h.update(b"\x1f")
    for app in builtin_applications().values():
        h.update(content_fingerprint(app).encode())
        h.update(b"\x1f")
    return h.hexdigest()
