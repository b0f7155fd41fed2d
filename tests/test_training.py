import re

import numpy as np
import pytest

from ascnet import convops, data, models, tensor, training
from ascnet.models import ModelSpec, build_model
from ascnet.training import TrainConfig, evaluate, grad_check, train


@pytest.fixture(scope="module")
def tiny_corpus():
    cfg = data.SynthConfig(num_train=8, num_test=4, height=32, width=32,
                           large_radius=(6.0, 7.0), small_per_image=(1, 2),
                           seed=11)
    return data.generate_synth(cfg)


def tiny_model(variant="classic7", seed=0, hw=32):
    return build_model(ModelSpec(variant, 2, hw, hw, 1), seed)


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: TrainConfig(seed=-1), "seed: -1 must be >= 0"),
        (lambda: TrainConfig(log_every=0), "log_every: 0 must be >= 1"),
        (lambda: TrainConfig(lr=float("nan")), "lr: nan must be finite and > 0"),
        (lambda: TrainConfig(lr=float("-inf")), "lr: -inf must be finite and > 0"),
        (lambda: grad_check("classic", seed=-1), "seed: -1 must be >= 0"),
    ], ids=["seed", "log_every", "lr-nan", "lr-inf", "gradcheck-seed"])
    def test_out_of_range_names_field(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_empty_training_set_errors(self):
        with pytest.raises(ValueError, match="^empty training set$"):
            train(tiny_model(), [], TrainConfig(iterations=1))

    def test_one_iteration_changes_some_parameter(self, tiny_corpus):
        train_set, _ = tiny_corpus
        model = tiny_model(seed=1)
        before = {k: v.copy() for k, v in models.param_dict(model).items()}
        train(model, train_set, TrainConfig(iterations=1, seed=0))
        after = models.param_dict(model)
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_deterministic_repeats_bit_identical(self, tiny_corpus, tmp_path):
        train_set, _ = tiny_corpus
        blobs = []
        for run in range(2):
            model = tiny_model("ascnet7", seed=3)
            cfg = TrainConfig(iterations=12, seed=42, deterministic=True,
                              log_every=5)
            model, report = train(model, train_set, cfg)
            ckpt = tmp_path / f"run{run}.asct"
            models.save_checkpoint(model, ckpt)
            csv = tmp_path / f"run{run}.csv"
            report.to_csv(csv)
            blobs.append((ckpt.read_bytes(), csv.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_loss_decreases(self, tiny_corpus):
        train_set, _ = tiny_corpus
        model = tiny_model(seed=2)
        _, report = train(model, train_set,
                          TrainConfig(iterations=300, seed=1, log_every=50))
        assert report.records[-1][1] < report.records[0][1]

    def test_does_not_mutate_dataset(self, tiny_corpus):
        train_set, _ = tiny_corpus
        images = [s.image.copy() for s in train_set]
        train(tiny_model(seed=4), train_set, TrainConfig(iterations=5, seed=0))
        for before, s in zip(images, train_set):
            assert np.array_equal(before, s.image)

    def test_divergence_raises_with_iteration(self, tiny_corpus):
        train_set, _ = tiny_corpus
        model = tiny_model(seed=0)
        model.layers[0].weights[...] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(training.TrainingDiverged, match="iteration 1"):
                train(model, train_set, TrainConfig(iterations=3, seed=0))

    def test_rate_network_divergence_raises_with_iteration(self, tiny_corpus):
        train_set, _ = tiny_corpus
        model = tiny_model("ascnet7", seed=0)
        model.ratenet.layers[0].weights[...] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(training.TrainingDiverged,
                               match="rate field became non-finite at iteration 1"):
                train(model, train_set, TrainConfig(iterations=3, seed=0))

    def test_default_config_is_not_deterministic(self):
        assert TrainConfig().deterministic is False

    def test_dim_mismatch_rejected(self, tiny_corpus):
        train_set, _ = tiny_corpus
        model = tiny_model(hw=16)
        with pytest.raises(ValueError, match="dims"):
            train(model, train_set, TrainConfig(iterations=1))

    def test_report_csv_format(self, tiny_corpus, tmp_path):
        train_set, _ = tiny_corpus
        _, report = train(tiny_model(seed=5), train_set,
                          TrainConfig(iterations=10, seed=0, log_every=5))
        path = tmp_path / "rep.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,loss,seconds"
        assert all(len(l.split(",")) == 3 for l in lines[1:])


class TestEvaluate:
    def test_oracle_stub_scores_one(self, tiny_corpus, monkeypatch):
        _, test_set = tiny_corpus
        model = tiny_model(seed=0)
        lookup = {s.image.tobytes(): s.labels for s in test_set}

        def fake_forward(m, image, return_cache=False):
            lab = lookup[image.tobytes()]
            logits = np.zeros((1, 2) + lab.shape[1:], dtype=np.float32)
            logits[0, 1][lab[0] == 1] = 10.0
            logits[0, 0][lab[0] == 0] = 10.0
            return logits, None

        monkeypatch.setattr(models, "model_forward", fake_forward)
        result = evaluate(model, test_set)
        assert result.dice == result.precision == result.recall == 1.0

    def test_all_background_prediction(self, tiny_corpus, monkeypatch):
        _, test_set = tiny_corpus
        model = tiny_model(seed=0)

        def fake_forward(m, image, return_cache=False):
            logits = np.zeros((1, 2, 32, 32), dtype=np.float32)
            logits[0, 0] = 10.0
            return logits, None

        monkeypatch.setattr(models, "model_forward", fake_forward)
        result = evaluate(model, test_set)
        assert result.dice == 0.0

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(tiny_model(), [])

    def test_metrics_in_unit_interval(self, tiny_corpus):
        _, test_set = tiny_corpus
        result = evaluate(tiny_model(seed=7), test_set)
        for c, rec in result.per_class.items():
            for v in rec.values():
                assert 0.0 <= v <= 1.0

    def test_pooled_variant_runs(self, tiny_corpus):
        _, test_set = tiny_corpus
        result = evaluate(tiny_model(seed=7), test_set, pooled=True)
        assert 0.0 <= result.dice <= 1.0

    def test_dim_mismatch_rejected(self, tiny_corpus):
        _, test_set = tiny_corpus
        with pytest.raises(ValueError, match="dims"):
            evaluate(tiny_model(hw=16), test_set)


class TestGradCheck:
    @pytest.mark.parametrize("target", ["classic", "dilated", "asc", "ratenet"])
    def test_targets_pass(self, target):
        report = grad_check(target)
        assert report.passed
        assert all(e.status == "PASS" for e in report.entries)

    def test_model_target_includes_rate_network(self):
        report = grad_check("model")
        assert report.passed
        groups = [e.group for e in report.entries]
        assert any(g.startswith("ratenet.") for g in groups)

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            grad_check("transformer")

    def test_offkink_rates_avoid_integers(self):
        rng = tensor.make_rng(0)
        r = training.offkink_rates(rng, (1, 1, 50, 50))
        assert np.all(np.abs(r - np.round(r)) >= 1e-3)


def _scaled_conv_backward(monkeypatch, which, kind=None):
    """Make `convops.conv_backward` return output `which` (0 = grad_x,
    1 = grad_w) scaled by 1.01, for layers of `kind` or every layer."""
    real = convops.conv_backward

    def wrong(x, layer, grad_y, cache=None):
        out = list(real(x, layer, grad_y, cache))
        if kind is None or layer.kind == kind:
            out[which] = out[which] * 1.01
        return tuple(out)

    monkeypatch.setattr(convops, "conv_backward", wrong)


class TestGradCheckHarness:
    @pytest.mark.parametrize("target", ["classic", "asc"])
    def test_wrong_input_gradient_fails(self, target, monkeypatch):
        _scaled_conv_backward(monkeypatch, 0)
        report = grad_check(target)
        by_group = {e.group: e.status for e in report.entries}
        assert by_group["input"] == "FAIL"
        assert by_group["weights"] == "PASS"
        assert not report.passed

    @pytest.mark.parametrize("target", ["ratenet", "model"])
    def test_wrong_rate_network_weight_gradient_fails(self, target, monkeypatch):
        # The rate network is the only classic stack in the reduced model.
        _scaled_conv_backward(monkeypatch, 1, convops.CLASSIC)
        report = grad_check(target)
        failed = {e.group for e in report.entries if e.status == "FAIL"}
        assert failed == {f"ratenet.layer{j}.weight" for j in range(3)}
        assert not report.passed

    def test_ratenet_groups_named_like_checkpoint(self):
        report = grad_check("ratenet")
        assert [e.group for e in report.entries] == [
            f"ratenet.layer{j}.{part}" for j in range(3)
            for part in ("weight", "bias")
        ]
        assert report.passed
