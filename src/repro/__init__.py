"""repro — reproduction of Carrington, Laurenzano, Snavely, Campbell & Davis,
"How Well Can Simple Metrics Represent the Performance of HPC Applications?"
(SC'05).

The package implements the paper's full pipeline on simulated substrates:

* machine models of the eleven HPCMP systems (:mod:`repro.machines`);
* memory hierarchy + cache simulator + stride detector (:mod:`repro.memory`);
* interconnect models (:mod:`repro.network`);
* the five TI-05 application models and a full-fidelity ground-truth
  executor (:mod:`repro.apps`);
* the synthetic probes — HPL, STREAM, GUPS, MAPS/ENHANCED MAPS, NETBENCH
  (:mod:`repro.probes`);
* MetaSim-style tracing (:mod:`repro.tracing`);
* the nine Table 3 metrics and the MetaSim Convolver (:mod:`repro.core`);
* the full 150-run / 1350-prediction study with the paper's tables and
  figures (:mod:`repro.study`).

Quickstart::

    from repro import PerformancePredictor, observed_time, get_machine, get_application

    predictor = PerformancePredictor()                    # base: NAVO p690
    t_pred = predictor.predict("AVUS-standard", "ARL_Opteron", cpus=64, metric=9)
    t_true = observed_time(get_machine("ARL_Opteron"), get_application("AVUS-standard"), 64)
"""

from repro.apps import (
    ApplicationModel,
    BasicBlock,
    CommEvent,
    GroundTruthExecutor,
    get_application,
    list_applications,
    observed_time,
)
from repro.core import (
    ALL_METRICS,
    REGISTRY,
    BalancedRating,
    CacheModel,
    Convolver,
    ErrorSummary,
    MemoryModel,
    Metric,
    MetricSpec,
    Mode,
    PerformancePredictor,
    PredictionContext,
    Term,
    absolute_error,
    get_metric,
    rank_agreement,
    rank_systems,
    signed_error,
    summarise,
)
from repro.machines import (
    BASE_SYSTEM,
    TARGET_SYSTEMS,
    MachineSpec,
    get_machine,
    list_machines,
)
from repro.probes import MachineProbes, probe_machine
from repro.study import StudyConfig, StudyResult, run_study
from repro.tracing import ApplicationTrace, MetaSimTracer, trace_application

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # machines
    "MachineSpec",
    "TARGET_SYSTEMS",
    "BASE_SYSTEM",
    "get_machine",
    "list_machines",
    # applications
    "ApplicationModel",
    "BasicBlock",
    "CommEvent",
    "get_application",
    "list_applications",
    "GroundTruthExecutor",
    "observed_time",
    # probes
    "MachineProbes",
    "probe_machine",
    # tracing
    "ApplicationTrace",
    "MetaSimTracer",
    "trace_application",
    # core
    "Metric",
    "ALL_METRICS",
    "get_metric",
    "REGISTRY",
    "MetricSpec",
    "Term",
    "Mode",
    "CacheModel",
    "PredictionContext",
    "Convolver",
    "MemoryModel",
    "PerformancePredictor",
    "BalancedRating",
    "signed_error",
    "absolute_error",
    "summarise",
    "ErrorSummary",
    "rank_systems",
    "rank_agreement",
    # study
    "run_study",
    "StudyConfig",
    "StudyResult",
]
