import numpy as np
import pytest

from ascnet import data, models, tensor

import workloads


def test_drawn_rate_field_has_the_pinned_mean_and_zero_share():
    spec = models.ModelSpec(models.ASCNET14)
    rng = tensor.make_rng(4)
    model = models.build_model(spec, rng)
    _, test = data.generate_synth(data.SynthConfig(seed=4, num_train=0, num_test=8))
    images = [s.image for s in test]
    workloads.draw_rate_network(model.ratenet, rng, images)
    rates = np.concatenate([models.rate_network_forward(im, model.ratenet).ravel()
                            for im in images])
    assert rates.mean() == pytest.approx(workloads.RATE_MEAN, rel=0.02)
    assert (rates == 0).mean() == pytest.approx(workloads.RATE_ZERO_SHARE, abs=5e-4)
    assert workloads.RATE_MEAN < rates.max() < 3 * workloads.RATE_MAX


def test_setup_probes_run_every_set_up_in_a_child(tmp_path):
    from conftest import ROOT
    wl = workloads.WORKLOADS["eval-ascnet14"]
    probes = workloads.SetupProbes(wl, 1, tmp_path, ROOT / "src", count=2)
    probes.start(0.0)
    assert probes.poll() > 0
    assert len(probes.setup_s) == 2 and all(s > 0 for s in probes.setup_s)
    assert len(probes.write_s) == 2
    assert list(tmp_path.iterdir()) == []              # each probe removes its corpus
