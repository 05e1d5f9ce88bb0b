"""High-level prediction facade — the library's main entry point.

:class:`PerformancePredictor` is a thin client of the staged engine
(:class:`~repro.engine.Engine`): it resolves names to models, builds a
:class:`~repro.engine.PointPlan` per query, and lets the engine own the
probe → trace → convolve dataflow.  Metrics resolve through the
declarative registry, so Table 3 numbers, registry names (``"balanced"``,
``"conv+maps"``) and user-registered metrics (#10+) all work.

    >>> from repro import PerformancePredictor
    >>> predictor = PerformancePredictor()
    >>> t = predictor.predict("AVUS-standard", "ARL_Opteron", cpus=64, metric=9)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.model import ApplicationModel
from repro.core.metrics import ALL_METRICS, Metric, PredictionContext, get_metric
from repro.scenarios import BASE_SYSTEM, get_application, get_machine
from repro.machines.spec import MachineSpec
from repro.tracing.metasim import DEFAULT_SAMPLE_SIZE

__all__ = ["PerformancePredictor", "Prediction"]


@dataclass(frozen=True)
class Prediction:
    """One prediction with its provenance.

    Attributes
    ----------
    application, system, cpus, metric:
        What was predicted with what.
    predicted_seconds:
        The metric's estimate ``T'(X, Y)``.
    base_seconds:
        The base-system time the prediction was anchored to.
    """

    application: str
    system: str
    cpus: int
    metric: int
    predicted_seconds: float
    base_seconds: float


class PerformancePredictor:
    """Predict application wall-clock times across systems.

    Parameters
    ----------
    base_system:
        Name of the base (tracing + Equation 1 anchor) system; defaults to
        the paper's NAVO p690.
    mode:
        ``"relative"`` (paper) or ``"absolute"`` convolution.
    sample_size:
        MetaSim tracer references per basic block.
    noise:
        Whether base-system "measurements" include run-to-run noise.
    """

    def __init__(
        self,
        base_system: str = BASE_SYSTEM,
        *,
        mode: str = "relative",
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        noise: bool = True,
    ):
        # Imported here, not at module top: core is below engine in the
        # layering (engine builds on core.metrics), and the facade is the
        # one core module allowed to reach up to it.
        from repro.engine import Engine

        self._engine = Engine(
            base_system, mode=mode, sample_size=sample_size, noise=noise
        )
        self.base_machine = self._engine.base_machine
        self.mode = self._engine.mode
        self.sample_size = sample_size
        self.noise = noise

    # ------------------------------------------------------------------
    def _resolve_app(self, app: ApplicationModel | str) -> ApplicationModel:
        return get_application(app) if isinstance(app, str) else app

    def _resolve_machine(self, machine: MachineSpec | str) -> MachineSpec:
        return get_machine(machine) if isinstance(machine, str) else machine

    def _plan(self, app, machine, cpus: int, metric):
        from repro.engine import PointPlan

        m = metric if isinstance(metric, Metric) else get_metric(metric)
        return PointPlan(
            app=self._resolve_app(app),
            cpus=cpus,
            target=self._resolve_machine(machine),
            metric=m,
        )

    @property
    def _base_times(self) -> dict[tuple[str, int], float]:
        """The engine's base-time cache (kept for API compatibility)."""
        return self._engine._base_times

    def base_time(self, app: ApplicationModel | str, cpus: int) -> float:
        """Measured (simulated) base-system time ``T(X0, Y)``, cached."""
        return self._engine.base_time(self._resolve_app(app), cpus)

    def context(
        self, app: ApplicationModel | str, machine: MachineSpec | str, cpus: int
    ) -> PredictionContext:
        """Assemble the full prediction context for one run."""
        model = self._resolve_app(app)
        target = self._resolve_machine(machine)
        bundle = self._engine.probe_bundle(model, cpus, target)
        return PredictionContext(
            trace=self._engine.trace(model, cpus),
            target_probes=bundle.target_probes,
            base_probes=bundle.base_probes,
            base_time=bundle.base_time,
            mode=self.mode,
        )

    # ------------------------------------------------------------------
    def predict(
        self,
        app: ApplicationModel | str,
        machine: MachineSpec | str,
        cpus: int,
        metric: "int | str | Metric" = 9,
    ) -> float:
        """Predict ``app``'s wall-clock seconds on ``machine`` at ``cpus``.

        ``metric`` is a registry number (Table 3's 1-9, 0 for the
        balanced rating, 10+ for user metrics), a registry name
        (``"balanced"``, ``"conv+maps+net"``) or a :class:`Metric`.
        """
        return self._engine.run_point(self._plan(app, machine, cpus, metric))

    def predict_detail(
        self,
        app: ApplicationModel | str,
        machine: MachineSpec | str,
        cpus: int,
        metric: "int | str | Metric" = 9,
    ) -> Prediction:
        """Like :meth:`predict` but returns provenance alongside the value."""
        plan = self._plan(app, machine, cpus, metric)
        value = self._engine.run_point(plan)
        return Prediction(
            application=plan.app.label,
            system=plan.target.name,
            cpus=cpus,
            metric=plan.metric.number,
            predicted_seconds=value,
            base_seconds=self._engine.base_time(plan.app, cpus),
        )

    def predict_row(
        self,
        app: ApplicationModel | str,
        machine: MachineSpec | str,
        cpus: int,
        metrics=None,
    ) -> dict[int, float]:
        """Predictions from several metrics for one run, keyed by number.

        The canonical many-metrics path: probe, trace and the convolver's
        rate table are shared across all requested metrics
        (:func:`~repro.core.metrics.predict_all`), and each value is
        bit-identical to the corresponding scalar :meth:`predict` call.
        ``metrics`` defaults to Table 3's nine; any mix of registry
        numbers and names is accepted.
        """
        keys = tuple(ALL_METRICS) if metrics is None else tuple(metrics)
        plan = self._plan(app, machine, cpus, next(iter(ALL_METRICS.values())))
        return self._engine.run_row(plan, keys)
