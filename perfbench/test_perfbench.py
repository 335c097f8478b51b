"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest perfbench
"""

import sys
import types

import pytest

import gauge
from spans import Tracer, count_children, self_times, strict_json, summarize, tail_percentile


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["trainer.train", 1.0, 4.0, 0],
        ["datagen.load_csv", 3.0, 6.0, 0],  # overlaps its sibling: 1..6 counted once
        ["ioutils.write", 7.0, 8.0, 0],
        ["net.forward_batch", 2.0, 3.0, 1],  # grandchild: only its parent subtracts it
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    calls, total, own = summarize(spans)
    assert calls["trainer.train"] == 1
    assert total["cli.main"] == 10.0
    assert own == {"cli": 4.0, "trainer": 2.0, "datagen": 3.0, "ioutils": 1.0, "net": 1.0}
    assert count_children(spans, "net.forward_batch", "trainer.") == 1


def test_tracer_wraps_restores_and_tolerates_missing_names():
    module = types.ModuleType("perfbench_fake_layer")
    module.work = lambda x: x * 2
    original = module.work
    sys.modules[module.__name__] = module
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    try:
        tracer.wrap(module.__name__, "work", "fake.work", lambda t, a, k, r: t.counts.update(rows=a[0]))
        tracer.wrap(module.__name__, "removed", "fake.removed")
        with tracer.span("bench.pass"):
            assert module.work(3) == 6
        tracer.restore()
    finally:
        del sys.modules[module.__name__]
    assert module.work is original
    assert tracer.missing == ["perfbench_fake_layer.removed"]
    assert tracer.spans == [["bench.pass", 0.0, 3.0, -1], ["fake.work", 1.0, 2.0, 0]]
    assert tracer.counts["rows"] == 3
    assert summarize(tracer.spans)[0]["fake.removed"] == 0


def test_failed_span_counts_against_its_layer():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("metrics.roc_auc"):
            raise ValueError("boom")
    assert tracer.counts["metrics.failed"] == 1
    assert tracer.spans[0][2] is not None


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_non_finite_tokens(token):
    with pytest.raises(ValueError):
        strict_json('{"srcc_system": %s}' % token)


def test_strict_json_accepts_plain_json():
    assert strict_json('{"auc": 0.75, "mse": null}') == {"auc": 0.75, "mse": None}


def test_gauge_factor_uses_the_segment_or_its_nearest_readings():
    sampler = gauge.Sampler()
    sampler.readings = [gauge.REF_S] * 30 + [2 * gauge.REF_S] * 30
    assert gauge.MIN_READINGS == 20
    assert sampler.factor(0, 30) == pytest.approx(1.0)
    assert sampler.factor(30, 60) == pytest.approx(0.5)
    # Too few readings of its own: the 20 nearest, clipped to those that exist.
    assert sampler.factor(58, 60) == pytest.approx(0.5)
    assert sampler.factor(29, 31) == pytest.approx(1 / 1.5)
    assert sampler.factor() == pytest.approx(1 / 1.5)


def test_gauge_handler_time_is_left_out_of_the_clock():
    sampler = gauge.Sampler()
    sampler._handler(None, None)
    assert len(sampler.readings) == 1
    assert sampler.stolen_s == sampler.readings[0] > 0
