import tracemalloc

import numpy as np
import pytest

from ascnet import models, tensor
from ascnet.convops import ADAPTIVE, CLASSIC, DILATED
from ascnet.models import ModelSpec, build_model, load_checkpoint, save_checkpoint


class TestBuildModel:
    def test_classic7_layout(self):
        m = build_model(ModelSpec("classic7", num_classes=2), 0)
        assert [l.out_channels for l in m.layers] == [8, 8, 8, 8, 8, 8, 2]
        assert all(l.kind == CLASSIC for l in m.layers)
        assert m.ratenet is None

    def test_dilated7_rates(self):
        m = build_model(ModelSpec("dilated7"), 0)
        assert [l.rate for l in m.layers] == [1, 1, 2, 4, 8, 16, 1]
        assert all(l.kind == DILATED for l in m.layers)

    def test_ascnet14_layout(self):
        m = build_model(ModelSpec("ascnet14", num_classes=2), 0)
        assert [l.out_channels for l in m.layers] == [32] * 13 + [2]
        assert all(l.kind == ADAPTIVE for l in m.layers)
        assert [l.out_channels for l in m.ratenet.layers] == [8, 4, 1]

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ModelSpec("unet")

    def test_num_classes_lower_bound(self):
        with pytest.raises(ValueError, match="num_classes"):
            ModelSpec("classic7", num_classes=1)

    def test_same_seed_same_weights(self):
        a = build_model(ModelSpec("ascnet7"), 5)
        b = build_model(ModelSpec("ascnet7"), 5)
        for pa, pb in zip(models.param_dict(a).values(),
                          models.param_dict(b).values()):
            assert np.array_equal(pa, pb)


class TestRateNetwork:
    def test_output_shape_and_channel(self):
        m = build_model(ModelSpec("ascnet7", height=16, width=16), 0)
        image = np.random.default_rng(0).standard_normal((1, 1, 16, 16)).astype(np.float32)
        rates = models.rate_network_forward(image, m.ratenet)
        assert rates.shape == (1, 1, 16, 16)

    def test_fresh_network_emits_ones(self):
        m = build_model(ModelSpec("ascnet7", height=16, width=16), 3)
        image = np.random.default_rng(1).standard_normal((1, 1, 16, 16)).astype(np.float32)
        rates = models.rate_network_forward(image, m.ratenet)
        assert np.array_equal(rates, np.ones((1, 1, 16, 16), dtype=np.float32))

    def test_outputs_nonnegative_for_random_params(self):
        rng = tensor.make_rng(2)
        m = build_model(ModelSpec("ascnet7", height=16, width=16), 2)
        for layer in m.ratenet.layers:
            layer.weights[...] = tensor.he_init(rng, layer.weights.shape)
            layer.bias[...] = rng.standard_normal(layer.bias.shape).astype(np.float32)
        image = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
        rates = models.rate_network_forward(image, m.ratenet)
        assert np.all(rates >= 0)


class TestModelForward:
    def test_fresh_ascnet_equals_classic_twin(self):
        asc = build_model(ModelSpec("ascnet7", height=16, width=16), 9)
        classic = build_model(ModelSpec("classic7", height=16, width=16), 9)
        for la, lc in zip(asc.layers, classic.layers):
            lc.weights[...] = la.weights
            lc.bias[...] = la.bias
        image = np.random.default_rng(0).standard_normal((1, 1, 16, 16)).astype(np.float32)
        ya, rates = models.model_forward(asc, image)
        yc, no_rates = models.model_forward(classic, image)
        assert no_rates is None
        assert np.allclose(ya, yc, atol=1e-6)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_forward_only_matches_cached_forward(self, variant):
        m = build_model(ModelSpec(variant, height=12, width=10), 5, dtype=np.float64)
        rng = tensor.make_rng(6)
        if m.is_adaptive:
            # Fractional rates, some of them zero.
            for layer in m.ratenet.layers:
                layer.weights[...] = tensor.he_init(rng, layer.weights.shape, np.float64)
        image = rng.standard_normal((1, 1, 12, 10))
        kept = image.copy()
        logits, rates = models.model_forward(m, image)
        assert np.array_equal(image, kept)
        cached, cached_rates, _ = models.model_forward(m, image, return_cache=True)
        assert logits.dtype == cached.dtype == np.float64
        assert np.abs(logits - cached).max() <= 1e-12 * np.abs(cached).max()
        if m.is_adaptive:
            assert np.abs(rates - cached_rates).max() <= 1e-12 * np.abs(cached_rates).max()

    def test_fresh_ascnet_forward_only_equals_classic_twin_bit_for_bit(self):
        asc = build_model(ModelSpec("ascnet7", height=16, width=16), 9)
        classic = build_model(ModelSpec("classic7", height=16, width=16), 9)
        for la, lc in zip(asc.layers, classic.layers):
            lc.weights[...] = la.weights
            lc.bias[...] = la.bias
        image = np.random.default_rng(1).standard_normal((1, 1, 16, 16)).astype(np.float32)
        ya, rates = models.model_forward(asc, image)
        yc, _ = models.model_forward(classic, image)
        assert np.array_equal(rates, np.ones_like(rates))
        assert ya.dtype == yc.dtype and ya.tobytes() == yc.tobytes()

    def test_classic_has_no_rates(self):
        m = build_model(ModelSpec("classic7", height=16, width=16), 0)
        image = np.zeros((1, 1, 16, 16), dtype=np.float32)
        image[0, 0, 3, 3] = 1.0
        _, rates = models.model_forward(m, image)
        assert rates is None

    def test_random_ascnet_smoke_sweep(self):
        for seed in range(10):
            m = build_model(ModelSpec("ascnet7", height=16, width=16), seed)
            rng = tensor.make_rng(seed + 100)
            for layer in m.ratenet.layers:
                layer.weights[...] = tensor.he_init(rng, layer.weights.shape)
            image = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
            logits, rates = models.model_forward(m, image)
            assert np.all(np.isfinite(logits))
            assert np.all(rates >= 0)

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_shape_law(self, variant):
        m = build_model(ModelSpec(variant, num_classes=3, height=10, width=12), 0)
        image = np.random.default_rng(0).standard_normal((1, 1, 10, 12)).astype(np.float32)
        logits, _ = models.model_forward(m, image)
        assert logits.shape == (1, 3, 10, 12)

    def test_shared_rate_field_across_layers(self):
        m = build_model(ModelSpec("ascnet7", height=12, width=12), 4)
        rng = tensor.make_rng(0)
        for layer in m.ratenet.layers:
            layer.weights[...] = tensor.he_init(rng, layer.weights.shape)
        m.ratenet.layers[-1].bias[...] = 1.0
        image = rng.standard_normal((1, 1, 12, 12)).astype(np.float32)
        _, rates, cache = models.model_forward(m, image, return_cache=True)
        plans = {id(c[0]) for c in cache["asc_caches"]}
        assert len(plans) == 1  # every adaptive layer consumed the same plan
        assert np.array_equal(cache["asc_caches"][0][0].rates, rates.reshape(-1))

    @pytest.mark.parametrize("variant", ["classic7", "ascnet7"])
    def test_cache_layout(self, variant):
        m = build_model(ModelSpec(variant, height=12, width=12), 2)
        image = np.random.default_rng(0).standard_normal((1, 1, 12, 12)).astype(np.float32)
        logits, rates, cache = models.model_forward(m, image, return_cache=True)
        assert set(cache) == {"inputs", "preacts", "asc_caches", "ratenet"}
        for key in ("inputs", "preacts", "asc_caches"):
            assert len(cache[key]) == 7
        assert cache["inputs"][0] is image
        assert cache["preacts"][-1] is logits   # no ReLU on the logits
        if variant == "classic7":
            assert rates is None and cache["ratenet"] is None
            assert all(c is None for c in cache["asc_caches"])
            return
        ratenet = cache["ratenet"]
        assert len(ratenet["inputs"]) == len(ratenet["preacts"]) == 3
        assert ratenet["inputs"][0] is image
        assert np.array_equal(np.maximum(ratenet["preacts"][-1], 0), rates)
        plan = cache["asc_caches"][0][0]
        assert all(c[0] is plan for c in cache["asc_caches"])
        assert np.array_equal(plan.rates, rates.reshape(-1))


class TestModelBackward:
    def test_zero_grad_logits(self):
        m = build_model(ModelSpec("ascnet7", height=12, width=12), 1)
        image = np.random.default_rng(0).standard_normal((1, 1, 12, 12)).astype(np.float32)
        logits, _, cache = models.model_forward(m, image, return_cache=True)
        grads = models.model_backward(m, cache, np.zeros_like(logits))
        assert all(not g.any() for g in grads.values())

    def test_missing_cache_errors(self):
        m = build_model(ModelSpec("classic7", height=12, width=12), 1)
        with pytest.raises(ValueError, match="cache"):
            models.model_backward(m, None, np.zeros((1, 2, 12, 12)))

    def test_frozen_rate_init_matches_classic_twin_grads(self):
        asc = build_model(ModelSpec("ascnet7", height=12, width=12), 9)
        classic = build_model(ModelSpec("classic7", height=12, width=12), 9)
        for la, lc in zip(asc.layers, classic.layers):
            lc.weights[...] = la.weights
            lc.bias[...] = la.bias
        rng = tensor.make_rng(0)
        image = rng.standard_normal((1, 1, 12, 12)).astype(np.float32)
        g = rng.standard_normal((1, 2, 12, 12)).astype(np.float32)
        _, _, ca = models.model_forward(asc, image, return_cache=True)
        _, _, cc = models.model_forward(classic, image, return_cache=True)
        ga = models.model_backward(asc, ca, g)
        gc = models.model_backward(classic, cc, g)
        for i in range(7):
            assert np.allclose(ga[f"layer{i}.weight"], gc[f"layer{i}.weight"],
                               atol=1e-6)
            assert np.allclose(ga[f"layer{i}.bias"], gc[f"layer{i}.bias"],
                               atol=1e-6)

    def test_every_parameter_gets_finite_gradient(self):
        m = models.build_reduced_asc_model(seed=0)
        rng = tensor.make_rng(1)
        for layer in m.ratenet.layers:
            layer.weights[...] = tensor.he_init(rng, layer.weights.shape,
                                                np.float64)
        m.ratenet.layers[-1].bias[...] = 1.0
        image = rng.standard_normal((1, 1, 8, 8))
        logits, _, cache = models.model_forward(m, image, return_cache=True)
        _, gl = tensor.softmax_cross_entropy(
            logits, rng.integers(0, 2, size=(1, 8, 8)))
        grads = models.model_backward(m, cache, gl)
        assert set(grads) == set(models.param_dict(m))
        for name, g in grads.items():
            assert np.all(np.isfinite(g)), name
            assert g.shape == models.param_dict(m)[name].shape


    def test_reduced_model_layout(self):
        m = models.build_reduced_asc_model(seed=4)
        assert (m.spec.height, m.spec.width, m.spec.num_classes) == (8, 8, 2)
        assert [l.out_channels for l in m.layers] == [4, 2]
        assert all(l.kind == ADAPTIVE for l in m.layers)
        assert all(a.dtype == np.float64 for a in models.param_dict(m).values())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = build_model(ModelSpec("dilated7", num_classes=3, height=16, width=16), 7)
        path = tmp_path / "ckpt.asct"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == m.spec
        assert [l.rate for l in loaded.layers] == [1, 1, 2, 4, 8, 16, 1]
        for a, b in zip(models.param_dict(m).values(),
                        models.param_dict(loaded).values()):
            assert np.array_equal(a, b)

    def test_ascnet_round_trip_preserves_forward(self, tmp_path):
        m = build_model(ModelSpec("ascnet7", height=16, width=16), 2)
        path = tmp_path / "ckpt.asct"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        image = np.random.default_rng(0).standard_normal((1, 1, 16, 16)).astype(np.float32)
        ya, _ = models.model_forward(m, image)
        yb, _ = models.model_forward(loaded, image)
        assert np.array_equal(ya, yb)

    def test_parameter_names(self, tmp_path):
        m = build_model(ModelSpec("ascnet7", height=16, width=16), 0)
        path = tmp_path / "ckpt.asct"
        save_checkpoint(m, path)
        names = set(tensor.load_tensors(path))
        assert "spec" in names
        assert "layer0.weight" in names and "layer6.bias" in names
        assert "ratenet.layer2.weight" in names

    @pytest.mark.parametrize("vid", [9, -1, 4])
    def test_out_of_range_variant_id_exits_2(self, tmp_path, capsys, vid):
        from ascnet.cli import main

        m = build_model(ModelSpec("classic7", height=16, width=16), 0)
        tensors = {"spec": np.array([vid, 2, 16, 16], dtype=np.float32)}
        tensors.update(models.param_dict(m))
        path = tmp_path / "ckpt.asct"
        tensor.save_tensors(path, tensors)
        with pytest.raises(ValueError, match=f"unknown variant id {vid}"):
            load_checkpoint(path)
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 2
        assert f"ckpt.asct: unknown variant id {vid}" in capsys.readouterr().err

    def test_num_classes_checked_before_the_model_is_built(self, tmp_path,
                                                           capsys):
        from ascnet.cli import main

        m = build_model(ModelSpec("classic7", height=16, width=16), 0)
        tensors = {"spec": np.array([0, 100000, 16, 16], dtype=np.float32)}
        tensors.update(models.param_dict(m))
        path = tmp_path / "ckpt.asct"
        tensor.save_tensors(path, tensors)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"ckpt\.asct: .*layer6\.weight"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Building the 100000-class logits layer would take about 87 MB.
        assert peak < 8 * 2**20
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 2
        assert "layer6.weight" in capsys.readouterr().err

    @pytest.mark.parametrize("variant,extra,named", [
        # An ascnet7 file whose spec says classic7 keeps its rate network.
        ("ascnet7", {}, [f"ratenet.layer{j}.{p}" for j in range(3)
                         for p in ("bias", "weight")]),
        ("classic7", {"layer0.wieght": np.zeros((8, 1, 3, 3), np.float32)},
         ["layer0.wieght"]),
    ], ids=["relabelled_ascnet7", "misspelt_extra"])
    def test_tensor_without_parameter_rejected(self, tmp_path, capsys, variant,
                                               extra, named):
        from ascnet.cli import main

        m = build_model(ModelSpec(variant, height=16, width=16), 0)
        tensors = {"spec": np.array([0, 2, 16, 16], dtype=np.float32)}
        tensors.update(models.param_dict(m), **extra)
        path = tmp_path / "ckpt.asct"
        tensor.save_tensors(path, tensors)
        with pytest.raises(ValueError, match=r"ckpt\.asct: classic7 has no "
                           "parameter for tensor") as info:
            load_checkpoint(path)
        assert str(info.value).endswith(", ".join(named))
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 2
        assert ", ".join(named) in capsys.readouterr().err

    @pytest.mark.parametrize("damage,message", [
        (lambda t: t.pop("spec"), "checkpoint missing 'spec' tensor"),
        (lambda t: t.pop("layer0.weight"), "checkpoint missing a 4-D 'layer0.weight'"),
        (lambda t: t.update({"layer0.weight": t["layer0.weight"].reshape(8, 9)}),
         "checkpoint missing a 4-D 'layer0.weight'"),
        (lambda t: t.pop("layer3.bias"), "checkpoint missing parameter layer3.bias"),
        (lambda t: t.update({"layer3.bias": np.zeros(9, np.float32)}),
         "parameter layer3.bias has shape (9,), expected (8,)"),
    ], ids=["no-spec", "no-layer0", "flat-layer0", "missing", "misshaped"])
    def test_incomplete_checkpoint_exits_2_naming_file(self, tmp_path, capsys,
                                                        damage, message):
        from ascnet.cli import main

        m = build_model(ModelSpec("classic7", height=16, width=16), 0)
        tensors = {"spec": np.array([0, 2, 16, 16], dtype=np.float32)}
        tensors.update(models.param_dict(m))
        damage(tensors)
        path = tmp_path / "ckpt.asct"
        tensor.save_tensors(path, tensors)
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err and "Traceback" not in err

    def test_unsupported_container_version_exits_2_naming_file(self, tmp_path,
                                                               capsys):
        from ascnet.cli import main

        path = tmp_path / "ckpt.asct"
        save_checkpoint(build_model(ModelSpec("classic7", height=16, width=16), 0),
                        path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = (tensor.CONTAINER_VERSION + 1).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: unsupported container version 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec,message", [
        ([0, 2, 16], "malformed 'spec'"),
        ([0.5, 2, 16, 16], "malformed 'spec'"),
        ([np.nan, 2, 16, 16], "malformed 'spec'"),
        ([0, 1, 16, 16], "num_classes: 1 must be >= 2"),
        ([0, 2, -5, 16], "height: -5 must be >= 1"),
    ])
    def test_malformed_spec_rejected(self, tmp_path, spec, message):
        m = build_model(ModelSpec("classic7", height=16, width=16), 0)
        tensors = {"spec": np.array(spec, dtype=np.float32)}
        tensors.update(models.param_dict(m))
        path = tmp_path / "ckpt.asct"
        tensor.save_tensors(path, tensors)
        with pytest.raises(ValueError, match=f"ckpt.asct: {message}"):
            load_checkpoint(path)
