import numpy as np
import pytest

from ascnet import convops, data, models, tensor, training

import tracing


@pytest.fixture(scope="module")
def samples():
    cfg = data.SynthConfig(num_train=3, num_test=1, seed=2)
    return data.generate_synth(cfg)[0]


def _train(samples, steps):
    spec = models.ModelSpec(models.ASCNET7)
    model = models.build_model(spec, tensor.make_rng(0))
    cfg = training.TrainConfig(iterations=steps, log_every=1, deterministic=False)
    return training.train(model, samples, cfg)


def test_install_restores_every_function(samples):
    before = {name: getattr(convops, name) for name in ("asc_conv_forward", "build_sampling_plan")}
    step = tensor.Adam.step
    tracer = tracing.Tracer()
    with tracer.installed():
        assert convops.asc_conv_forward is not before["asc_conv_forward"]
    assert all(getattr(convops, n) is f for n, f in before.items())
    assert tensor.Adam.step is step


def test_spans_form_steps_and_self_times_add_up(samples):
    tracer = tracing.Tracer()
    with tracer.installed():
        _, report = _train(samples, 3)
    t = tracer
    assert len(tracing.step_roots(t)) == 3
    for sid, parent in enumerate(t.parents):   # every span ends inside its parent
        assert t.starts[sid] <= t.ends[sid]
        if parent >= 0:
            assert t.starts[parent] <= t.starts[sid] and t.ends[sid] <= t.ends[parent]
    forward_parents = [t.names[t.parents[sid]] for sid, name in enumerate(t.names)
                       if name == tracing.FORWARD]
    assert forward_parents == [tracing.STEP_SPAN] * 3
    assert t.names[t.parents[t.names.index("tensor.Adam.step")]] == tracing.STEP_SPAN
    rows, steps, mean_step = tracing.self_time_table(tracer)
    assert steps == 3
    assert sum(r[1] for r in rows) == pytest.approx(mean_step, rel=1e-9)
    names = {r[0] for r in rows}
    assert {"convops.asc_conv_forward", "convops.asc_conv_backward",
            "tensor.Adam.step", tracing.STEP_SPAN} <= names


def test_layer_metrics_on_a_traced_run(samples):
    tracer = tracing.Tracer()
    with tracer.installed():
        _train(samples, 2)
    m = tracing.layer_metrics(tracer)
    assert m["convops.asc_fwd.calls_per_step"] == 7
    assert m["convops.asc_bwd.calls_per_step"] == 7
    assert m["convops.plan.calls_per_step"] == 1
    assert m["convops.asc_fwd.8x8.ms"] > 0 and m["convops.dilated_fwd.8x8.ms"] == 0
    assert m["models.cache_mb"] > m["convops.asc.cache_mb"] > 0
    # A fresh ascnet emits rate 1 everywhere at its first step.
    assert m["rates.max"] >= 1.0


def test_rate_metrics_of_constant_fields():
    ones = np.ones((1, 1, 8, 8), dtype=np.float32)
    p = tracing.rate_metrics([tracing.plan_properties(convops.build_sampling_plan(ones, 8, 8))])
    assert p["rates.integer_share"] == 1.0 and p["rates.zero_share"] == 0.0
    assert p["rates.fractional_tap_share"] == 0.0
    # Rate 1 on an 8-pixel axis: a corner read sits at offset tap + {0, 1}
    # in {-1, 0, 1, 0, 1, 2}, and 5 of the 48 (pixel, offset) pairs fall
    # off the axis.
    assert p["rates.offimage_read_share"] == pytest.approx(1 - (43 / 48) ** 2)
    # An integer tap has weight 1 on its floor corner and 0 on the other
    # three; the floor corner is on the axis in 22 of 24 cases.
    assert p["convops.asc.useful_corner_share"] == pytest.approx((22 / 24) ** 2 / 4)
    half = np.full((1, 1, 8, 8), 0.5, dtype=np.float32)
    q = tracing.rate_metrics([tracing.plan_properties(convops.build_sampling_plan(half, 8, 8))])
    assert q["rates.fractional_tap_share"] == pytest.approx(8 / 9)
    assert q["rates.integer_share"] == 0.0 and q["rates.mean"] == 0.5


def test_only_every_nth_plan_is_sampled(samples):
    tracer = tracing.Tracer()
    with tracer.installed():
        _train(samples, 5)
    assert tracer.plans == 5
    assert len(tracer.plan_stats) == len(range(0, 5, tracing.RATE_SAMPLE_EVERY))
