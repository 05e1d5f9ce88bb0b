"""Tests for the high-level PerformancePredictor facade."""

import pytest

from repro.apps.suite import get_application
from repro.core.predictor import PerformancePredictor
from repro.machines.registry import BASE_SYSTEM, get_machine


@pytest.fixture(scope="module")
def predictor():
    return PerformancePredictor()


def test_predict_by_names(predictor):
    t = predictor.predict("AVUS-standard", "ARL_Opteron", 64, metric=9)
    assert t > 0


def test_predict_by_objects(predictor):
    app = get_application("AVUS-standard")
    machine = get_machine("ARL_Opteron")
    t_names = predictor.predict("AVUS-standard", "ARL_Opteron", 64, metric=9)
    t_objects = predictor.predict(app, machine, 64, metric=9)
    assert t_objects == pytest.approx(t_names)


def test_base_time_cached(predictor):
    a = predictor.base_time("AVUS-standard", 64)
    b = predictor.base_time("AVUS-standard", 64)
    assert a == b
    assert ("AVUS-standard", 64) in predictor._base_times


def test_predict_detail_provenance(predictor):
    detail = predictor.predict_detail("HYCOM-standard", "ASC_SC45", 96, metric=6)
    assert detail.application == "HYCOM-standard"
    assert detail.system == "ASC_SC45"
    assert detail.cpus == 96
    assert detail.metric == 6
    assert detail.predicted_seconds > 0
    assert detail.base_seconds == predictor.base_time("HYCOM-standard", 96)


def test_predict_row_defaults_to_table3_metrics(predictor):
    values = predictor.predict_row("RFCTH-standard", "ARL_Xeon", 32)
    assert sorted(values) == list(range(1, 10))
    assert values[1] == pytest.approx(values[4], rel=1e-9)  # M1 == M4


def test_default_base_is_navo_p690(predictor):
    assert predictor.base_machine.name == BASE_SYSTEM


def test_custom_base_system():
    predictor = PerformancePredictor("NAVO_655")
    ctx = predictor.context("AVUS-standard", "NAVO_655", 64)
    from repro.core.metrics import get_metric

    # predicting the base on itself is exact for every metric
    assert get_metric(2).predict(ctx) == pytest.approx(ctx.base_time)


def test_noise_flag_changes_base_time():
    noisy = PerformancePredictor(noise=True).base_time("AVUS-standard", 64)
    clean = PerformancePredictor(noise=False).base_time("AVUS-standard", 64)
    assert noisy != clean


def test_unknown_names_raise(predictor):
    with pytest.raises(KeyError):
        predictor.predict("NOTANAPP", "ARL_Opteron", 64)
    with pytest.raises(KeyError):
        predictor.predict("AVUS-standard", "NOTAMACHINE", 64)
