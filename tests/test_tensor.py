import math
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ascnet import tensor


class TestRelu:
    def test_definition(self):
        out = tensor.relu(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_zeros_fixed_point(self):
        z = np.zeros((3, 4))
        assert np.array_equal(tensor.relu(z), z)

    def test_backward_subgradient_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0])
        g = tensor.relu_backward(x, np.ones(3))
        assert np.array_equal(g, [0.0, 0.0, 1.0])

    def test_shape_preserved(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 5))
        assert tensor.relu(x).shape == x.shape


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((1, 2, 3, 3))
        labels = np.zeros((1, 3, 3), dtype=np.int64)
        loss, _ = tensor.softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_saturated_correct_class(self):
        logits = np.zeros((1, 2, 2, 2))
        logits[0, 1] = 100.0
        labels = np.ones((1, 2, 2), dtype=np.int64)
        loss, _ = tensor.softmax_cross_entropy(logits, labels)
        assert loss < 1e-6

    def test_matches_per_pixel_definition(self):
        # Independent oracle: per-pixel softmax computed literally in f64.
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((1, 2, 4, 4))
        labels = rng.integers(0, 2, size=(1, 4, 4))
        expected = 0.0
        for y in range(4):
            for x in range(4):
                z = logits[0, :, y, x]
                p = np.exp(z) / np.exp(z).sum()
                expected -= math.log(p[labels[0, y, x]])
        expected /= 16
        loss, _ = tensor.softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((1, 2, 4, 4))
        labels = rng.integers(0, 2, size=(1, 4, 4))
        _, grad = tensor.softmax_cross_entropy(logits, labels)
        h = 1e-6
        flat = logits.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = tensor.softmax_cross_entropy(logits, labels)[0]
            flat[i] = orig - h
            fm = tensor.softmax_cross_entropy(logits, labels)[0]
            flat[i] = orig
            num = (fp - fm) / (2 * h)
            assert abs(num - grad.reshape(-1)[i]) < 1e-6 * max(1.0, abs(num))

    def test_label_out_of_range_names_pixel(self):
        logits = np.zeros((1, 2, 3, 3))
        labels = np.zeros((1, 3, 3), dtype=np.int64)
        labels[0, 2, 1] = 5
        with pytest.raises(ValueError, match=r"\(2,1\)"):
            tensor.softmax_cross_entropy(logits, labels)

    def test_logits_without_batch_axis_rejected(self):
        with pytest.raises(ValueError, match=r"logits must be \(1,C,H,W\), "
                                             r"got \(2, 3, 3\)"):
            tensor.softmax_cross_entropy(np.zeros((2, 3, 3)),
                                         np.zeros((1, 3, 3), dtype=np.int64))

    def test_stability_with_large_logits(self):
        logits = np.full((1, 2, 2, 2), 1e4)
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        loss, grad = tensor.softmax_cross_entropy(logits, labels)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        p = {"w": np.array([1.0, -1.0, 0.5])}
        g = np.array([0.3, -0.2, 0.7])
        before = p["w"].copy()
        tensor.Adam(p, lr=1e-3).step({"w": g})
        delta = p["w"] - before
        assert np.allclose(delta, -1e-3 * np.sign(g), atol=1e-7)

    def test_zero_gradient_is_noop(self):
        p = {"w": np.array([1.0, 2.0])}
        opt = tensor.Adam(p, lr=1e-3)
        for _ in range(4):
            opt.step({"w": np.zeros(2)})
        assert np.array_equal(p["w"], [1.0, 2.0])
        assert np.array_equal(opt.m["w"], np.zeros(2))

    def test_three_step_scalar_recurrence(self):
        # Independent oracle: the Adam recurrence hand-rolled on a scalar.
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        theta, m, v = 1.0, 0.0, 0.0
        for t in range(1, 4):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** t)
            vh = v / (1 - b2 ** t)
            theta -= lr * mh / (math.sqrt(vh) + eps)

        p = {"w": np.array([1.0])}
        opt = tensor.Adam(p, lr=lr)
        for _ in range(3):
            opt.step({"w": np.ones(1)})
        assert p["w"][0] == pytest.approx(theta, rel=1e-14)

    def test_shape_mismatch(self):
        opt = tensor.Adam({"w": np.zeros(2)}, lr=1e-3)
        with pytest.raises(ValueError, match="gradient of w"):
            opt.step({"w": np.zeros(3)})

    def test_optimizer_class_updates_in_place(self):
        p = {"w": np.ones(3)}
        opt = tensor.Adam(p, lr=1e-2)
        opt.step({"w": np.ones(3)})
        assert np.all(p["w"] < 1.0)

    def test_steps_keep_parameter_and_moment_arrays(self):
        p = {"w": np.ones(3, dtype=np.float32)}
        opt = tensor.Adam(p, lr=1e-2)
        held = (p["w"], opt.m["w"], opt.v["w"])
        for _ in range(2):
            opt.step({"w": np.full(3, 0.5, dtype=np.float32)})
        assert all(a is b for a, b in zip((p["w"], opt.m["w"], opt.v["w"]), held))
        assert np.all(opt.m["w"] > 0) and np.all(opt.v["w"] > 0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = tensor.make_rng(42).standard_normal(100)
        b = tensor.make_rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = tensor.make_rng(1).standard_normal(10)
        b = tensor.make_rng(2).standard_normal(10)
        assert not np.array_equal(a, b)


class TestContainer:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.standard_normal((2, 3, 4)).astype(np.float32),
            "b.weight": rng.standard_normal((5,)),
            "empty-ish": np.zeros((1, 1), dtype=np.float32),
        }
        path = tmp_path / "t.asct"
        tensor.save_tensors(path, tensors)
        loaded = tensor.load_tensors(path)
        assert list(loaded) == list(tensors)
        for k in tensors:
            assert loaded[k].dtype == tensors[k].dtype
            assert np.array_equal(loaded[k], tensors[k])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.asct"
        tensor.save_tensors(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = path.read_bytes()
        assert blob[:4] == b"ASCT"
        assert blob[4:6] == (1).to_bytes(2, "little")
        assert blob[6:10] == (1).to_bytes(4, "little")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            tensor.load_tensors(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            tensor.save_tensors(tmp_path / "t.asct", {"x": np.zeros(2, dtype=np.int32)})

    def test_truncation_at_every_offset_names_file_and_offset(self, tmp_path):
        good = tmp_path / "good.asct"
        tensor.save_tensors(good, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                   "b": np.ones(2)})
        blob = good.read_bytes()
        bad = tmp_path / "bad.asct"
        for cut in range(4, len(blob)):
            bad.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match=r"bad\.asct: .* at offset \d+"):
                tensor.load_tensors(bad)
        bad.write_bytes(blob + b"\x00")
        with pytest.raises(ValueError, match=f"trailing bytes at offset {len(blob)}"):
            tensor.load_tensors(bad)

    def test_bad_name_and_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "t.asct"
        tensor.save_tensors(path, {"x": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF                      # the one-byte name "x"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not UTF-8 at offset 12"):
            tensor.load_tensors(path)
        blob[12], blob[13] = ord("x"), 7     # dtype code
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="dtype code 7 .* at offset 13"):
            tensor.load_tensors(path)

    def test_repeated_name_rejected(self, tmp_path):
        # save_tensors writes a dict, so only a hand-made file repeats a name.
        path = tmp_path / "t.asct"
        tensor.save_tensors(path, {"x": np.ones(2, dtype=np.float32),
                                   "y": np.zeros(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        off = blob.index(b"y")
        blob[off] = ord("x")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError,
                           match=rf"t\.asct: repeated tensor name 'x' at offset {off}"):
            tensor.load_tensors(path)

    def test_cli_short_file_exits_2_with_message(self, tmp_path, capsys):
        from ascnet.cli import main

        path = tmp_path / "short.asct"
        path.write_bytes(b"ASCT\x01\x00")
        assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "short.asct: truncated header at offset 4" in err
        assert "Traceback" not in err


# Any UTF-8 names; f32 or f64 arrays of 0-4 dims of size 0-5 each. Values
# may be NaN, +-inf or -0.0; `_SPECIAL` holds all of them.
_TENSORS = st.dictionaries(
    st.text(max_size=12),
    hnp.arrays(st.sampled_from([np.float32, np.float64]),
               hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
               elements={"allow_nan": True, "allow_infinity": True}),
    max_size=4,
)
_SPECIAL = {"special": np.array([np.nan, np.inf, -np.inf, -0.0], np.float32),
            "nan·0d": np.array(np.nan)}


class TestContainerProperties:
    @given(tensors=_TENSORS)
    @example(tensors=_SPECIAL)
    def test_round_trip_is_bit_exact(self, tmp_path_factory, tensors):
        # Compared by bytes, so NaN payloads and -0.0 count too.
        path = tmp_path_factory.mktemp("asct") / "t.asct"
        tensor.save_tensors(path, tensors)
        loaded = tensor.load_tensors(path)
        assert list(loaded) == list(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    @given(tensors=_TENSORS, data=st.data())
    def test_any_cut_names_the_file(self, tmp_path_factory, tensors, data):
        path = tmp_path_factory.mktemp("asct") / "cut.asct"
        tensor.save_tensors(path, tensors)
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            tensor.load_tensors(path)
