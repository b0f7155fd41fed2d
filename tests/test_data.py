import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ascnet import data
from ascnet.data import (
    SynthConfig,
    export_rate_field,
    generate_synth,
    load_image_dir,
    overlap_counts,
    overlap_metrics,
    preprocess,
    rate_stats,
    read_pgm,
    write_pgm,
)


def small_cfg(**kw):
    defaults = dict(num_train=4, num_test=2, height=48, width=48)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestPreprocess:
    def test_ramp_normalized(self):
        out = preprocess(np.arange(16.0).reshape(4, 4))
        assert abs(out.mean()) < 1e-5
        assert abs(out.std() - 1.0) < 1e-5

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = preprocess(rng.standard_normal((8, 8)))
        again = preprocess(x)
        assert np.allclose(again, x, atol=1e-6)

    def test_statistics_recomputed(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0, 1, (16, 16))
        out = preprocess(raw)
        assert np.allclose(out * raw.std() + raw.mean(), raw, atol=1e-5)

    def test_constant_image_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            preprocess(np.full((4, 4), 3.0))


class TestGenerateSynth:
    def test_no_objects_all_background(self):
        cfg = small_cfg(small_per_image=(0, 0), large_per_image=(0, 0))
        train, _ = generate_synth(cfg)
        assert all(not s.labels.any() for s in train)

    def test_deterministic(self):
        a_train, a_test = generate_synth(small_cfg(seed=9))
        b_train, b_test = generate_synth(small_cfg(seed=9))
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.labels, b.labels)
            assert a.meta == b.meta

    def test_foreground_fraction_default_cfg(self):
        train, _ = generate_synth(SynthConfig(num_train=200, num_test=1))
        for s in train:
            frac = s.labels.mean()
            assert 0.02 <= frac <= 0.40

    def test_images_preprocessed(self):
        train, _ = generate_synth(small_cfg())
        for s in train:
            assert abs(s.image.mean()) < 1e-5
            assert abs(s.image.std() - 1.0) < 1e-4

    def test_both_populations_present(self):
        train, _ = generate_synth(small_cfg())
        for s in train:
            radii = [r for _, _, r in s.meta]
            assert any(r <= 4.0 for r in radii)
            assert any(r >= 10.0 for r in radii)

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SynthConfig(small_radius=(2, 11), large_radius=(10, 16))

    def test_radius_that_cannot_fit_rejected(self):
        # A disk centre needs radius + 1 px on each side: r <= 32 / 2 - 1.
        with pytest.raises(ValueError, match="large_radius"):
            SynthConfig(height=32, width=40)  # default large_radius (10, 16)
        with pytest.raises(ValueError, match="small_radius"):
            SynthConfig(height=40, width=32, small_radius=(2.0, 15.5),
                        large_radius=(16.0, 17.0))
        SynthConfig(height=32, width=32, large_radius=(10.0, 15.0))

    @pytest.mark.parametrize("field, value, message", [
        ("num_train", 2.5, "expected integer"),
        ("height", 64.5, "expected integer"),
        ("seed", "x", "expected integer"),
        ("seed", True, "expected integer"),
        ("noise_sigma", "0.1", "expected number"),
        ("small_radius", 3, "expected a pair of numbers"),
        ("small_radius", (1.0, 2.0, 3.0), "expected a pair of numbers"),
        ("small_per_image", (1.5, 2), "expected a pair of integers"),
        ("large_per_image", [1, False], "expected a pair of integers"),
    ])
    def test_field_types_checked(self, field, value, message):
        with pytest.raises(TypeError, match=f"^{field}: .*{message}"):
            SynthConfig(**{field: value})

    def test_numpy_and_list_values_accepted(self):
        cfg = SynthConfig(num_train=np.int64(2), noise_sigma=np.float32(0.1),
                          small_radius=[2, 4.0], large_per_image=[1, 2])
        assert cfg.num_train == 2

    def test_infeasible_placement_errors(self):
        with pytest.raises(RuntimeError, match="place"):
            generate_synth(small_cfg(large_per_image=(8, 8), max_place_tries=5))


def metrics(pred_mask, true_mask):
    return overlap_metrics(*overlap_counts(pred_mask, true_mask))


class TestMetrics:
    def test_perfect_prediction(self):
        m = np.zeros((5, 5), bool)
        m[1:3, 1:3] = True
        r = metrics(m, m)
        assert r["dice"] == r["precision"] == r["recall"] == 1.0

    def test_disjoint_nonempty(self):
        p = np.zeros((4, 4), bool)
        t = np.zeros((4, 4), bool)
        p[0, 0] = True
        t[3, 3] = True
        r = metrics(p, t)
        assert r["dice"] == r["precision"] == r["recall"] == 0.0

    def test_half_overlap(self):
        p = np.zeros(6, bool)
        t = np.zeros(6, bool)
        p[:2] = True
        t[1:3] = True
        r = metrics(p, t)
        assert r["dice"] == 0.5
        assert r["precision"] == 0.5
        assert r["recall"] == 0.5

    def test_empty_conventions(self):
        e = np.zeros(4, bool)
        f = np.array([True, False, False, False])
        r = metrics(e, e)
        assert r["dice"] == r["precision"] == r["recall"] == 1.0
        assert metrics(f, e)["dice"] == 0.0 and metrics(e, f)["dice"] == 0.0
        assert metrics(e, f)["precision"] == 0.0 and metrics(f, e)["recall"] == 0.0

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.random(20) > 0.5
            t = rng.random(20) > 0.5
            d = metrics(p, t)["dice"]
            assert 0.0 <= d <= 1.0
            assert d == metrics(t, p)["dice"]
            assert metrics(p, t)["precision"] == metrics(t, p)["recall"]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            metrics(np.zeros(3, bool), np.zeros(4, bool))


class TestPgm:
    @pytest.mark.parametrize("maxval,dtype", [(255, np.uint8), (65535, np.uint16)])
    def test_round_trip_exact(self, tmp_path, maxval, dtype):
        rng = np.random.default_rng(0)
        values = rng.integers(0, maxval + 1, size=(9, 7)).astype(dtype)
        path = tmp_path / "x.pgm"
        write_pgm(path, values, maxval=maxval)
        assert np.array_equal(read_pgm(path)[0], values)

    @pytest.mark.parametrize("values,maxval,message", [
        (np.zeros(4, np.uint8), 255, "PGM payload must be 2-D"),
        (np.zeros((2, 2), np.uint8), 0, r"maxval must be in \[1, 65535\]"),
        (np.zeros((2, 2), np.uint16), 65536, r"maxval must be in \[1, 65535\]"),
        (np.array([[7, 101]]), 100, "PGM sample values out of range"),
    ], ids=["1d", "maxval-0", "maxval-65536", "above-maxval"])
    def test_write_rejects_what_cannot_be_read_back(self, tmp_path, values,
                                                   maxval, message):
        path = tmp_path / "x.pgm"
        with pytest.raises(ValueError, match=message):
            write_pgm(path, values, maxval=maxval)
        assert not path.exists()

    def test_16bit_big_endian_payload(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.array([[0x0102]], dtype=np.uint16), maxval=65535)
        blob = path.read_bytes()
        assert blob.endswith(b"\x01\x02")

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
        assert np.array_equal(read_pgm(path)[0], [[7, 9]])

    def test_non_p5_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    def test_comment_after_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n1 1\n255#c\n\x00")
        with pytest.raises(ValueError, match="maxval must be followed"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_truncation_at_every_offset_names_file(self, tmp_path, maxval):
        full = tmp_path / "full.pgm"
        write_pgm(full, np.arange(6).reshape(2, 3), maxval=maxval)
        blob = full.read_bytes().replace(b"P5\n", b"P5\n# made by hand\n", 1)
        path = tmp_path / "cut.pgm"
        for k in range(len(blob)):
            path.write_bytes(blob[:k])
            with pytest.raises(ValueError) as exc:
                read_pgm(path)
            assert str(path) in str(exc.value), k
        path.write_bytes(blob)
        assert np.array_equal(read_pgm(path)[0], np.arange(6).reshape(2, 3))

    @pytest.mark.parametrize("header,message", [
        (b"P5\n64", "truncated PGM header"),
        (b"P5\n# no newline", "truncated PGM header"),
        (b"P5\n2 1\n0\n\x00\x00", "maxval 0"),
        (b"P5\n2 1\n65536\n" + bytes(4), "maxval 65536"),
        (b"P5\n0 1\n255\n", "0x1"),
        (b"P5\n2 x\n255\n\x00\x00", "decimal integers"),
        (b"P5\n-2 1\n255\n\x00\x00", "decimal integers"),
    ], ids=["no-height", "comment-without-newline", "maxval-0", "maxval-65536",
            "zero-width", "letter", "negative"])
    def test_bad_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "x.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=message) as exc:
            read_pgm(path)
        assert str(path) in str(exc.value)


class TestRateFieldExport:
    def test_constant_field(self, tmp_path):
        rates = np.full((1, 1, 4, 4), 2.5, dtype=np.float32)
        prefix = tmp_path / "rf"
        export_rate_field(rates, prefix)
        pgm, _ = read_pgm(str(prefix) + ".pgm")
        assert (pgm == pgm.flat[0]).all()
        csv = np.loadtxt(str(prefix) + ".csv", delimiter=",", ndmin=2)
        assert np.all(csv == 2.5)

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        rates = rng.uniform(0, 3, (1, 1, 6, 5)).astype(np.float32)
        prefix = tmp_path / "rf"
        export_rate_field(rates, prefix)
        back = np.loadtxt(str(prefix) + ".csv", delimiter=",", ndmin=2)
        assert np.array_equal(back.astype(np.float32), rates[0, 0])

    def test_scale_sidecar(self, tmp_path):
        rates = np.linspace(0.5, 2.0, 16, dtype=np.float64).reshape(1, 1, 4, 4)
        prefix = tmp_path / "rf"
        export_rate_field(rates, prefix)
        text = (tmp_path / "rf.scale.txt").read_text()
        assert "min=0.5" in text and "max=2.0" in text

    def test_rate_stats_constructed(self):
        h = w = 32
        labels = np.zeros((1, h, w), dtype=np.int64)
        rates = np.zeros((1, 1, h, w))
        meta = [(8.0, 8.0, 3.0), (22.0, 22.0, 9.0)]
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        for cy, cx, r in meta:
            mask = np.hypot(yy - cy, xx - cx) <= r
            labels[0][mask] = 1
            rates[0, 0][mask] = 2 * r
        stats = rate_stats(rates, labels, meta)
        assert stats["large"] > stats["small"]
        assert stats["background"] == 0.0


class TestCorpusIO:
    def test_write_then_load_round_trip(self, tmp_path):
        train, _ = generate_synth(small_cfg(seed=3))
        data.write_samples(train, tmp_path / "train")
        loaded = load_image_dir(tmp_path / "train")
        assert len(loaded) == len(train)
        for a, b in zip(train, loaded):
            # A generated sample is its written-then-read form bit for bit.
            for field in ("pixels", "image", "labels"):
                x, y = getattr(a, field), getattr(b, field)
                assert x.dtype == y.dtype and np.array_equal(x, y), field
            assert a.meta == pytest.approx(b.meta)

    def test_8bit_corpus_rewrites_byte_identical(self, tmp_path):
        train, _ = generate_synth(small_cfg(seed=5))
        src = tmp_path / "src"
        data.write_samples(train, src)
        for img in src.glob("img_*.pgm"):
            write_pgm(img, (read_pgm(img)[0] >> 8).astype(np.uint8), 255)
        data.write_samples(load_image_dir(src), tmp_path / "out")
        names = sorted(p.name for p in src.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "out").iterdir())
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (src / name).read_bytes()), name

    def test_12bit_corpus_keeps_its_maxval(self, tmp_path):
        rng = np.random.default_rng(7)
        src = tmp_path / "src"
        src.mkdir()
        values = rng.integers(0, 4096, (32, 32)).astype(np.uint16)
        write_pgm(src / "img_0000.pgm", values, maxval=4095)
        write_pgm(src / "lbl_0000.pgm", (values > 2048).astype(np.uint8), maxval=255)
        (s,) = load_image_dir(src)
        assert s.maxval == 4095 and np.array_equal(s.pixels, values)
        # decode scales by the file's own white, not by the dtype's.
        want = data.preprocess(values.astype(np.float32) / 4095)
        assert s.image.tobytes() == want.tobytes()
        data.write_samples([s], tmp_path / "out")
        blob = (tmp_path / "out" / "img_0000.pgm").read_bytes()
        assert blob == (src / "img_0000.pgm").read_bytes()
        assert blob.startswith(b"P5\n32 32\n4095\n")

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n2 1\n100\n\x07\x65")
        with pytest.raises(ValueError, match="sample 101 at pixel \\(0,1\\) "
                                             "exceeds maxval 100") as exc:
            read_pgm(path)
        assert str(path) in str(exc.value)

    def test_loaded_samples_hold_file_bits(self, tmp_path):
        train, _ = generate_synth(small_cfg(seed=6))
        data.write_samples(train, tmp_path)
        for s in load_image_dir(tmp_path):
            assert s.labels.dtype == np.uint8 and s.pixels.dtype == np.uint16
            held = s.image.nbytes + s.labels.nbytes + s.pixels.nbytes
            assert held <= 7 * s.pixels.size

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no img_"):
            load_image_dir(tmp_path)

    def test_unpaired_file_errors(self, tmp_path):
        write_pgm(tmp_path / "img_0000.pgm", np.zeros((4, 4), np.uint8), 255)
        with pytest.raises(ValueError, match="lbl_0000"):
            load_image_dir(tmp_path)

    def test_mis_sized_pair_errors(self, tmp_path):
        write_pgm(tmp_path / "img_0000.pgm",
                  np.random.default_rng(0).integers(0, 256, (4, 4)).astype(np.uint8), 255)
        write_pgm(tmp_path / "lbl_0000.pgm", np.zeros((5, 5), np.uint8), 255)
        with pytest.raises(ValueError, match="dims"):
            load_image_dir(tmp_path)

    def test_8bit_and_16bit_agree_after_preprocess(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = rng.uniform(0, 1, (16, 16))
        d8 = tmp_path / "d8"
        d16 = tmp_path / "d16"
        for d in (d8, d16):
            d.mkdir()
            write_pgm(d / "lbl_0000.pgm", np.zeros((16, 16), np.uint8), 255)
        write_pgm(d8 / "img_0000.pgm", np.round(raw * 255).astype(np.uint8), 255)
        write_pgm(d16 / "img_0000.pgm", np.round(raw * 65535).astype(np.uint16), 65535)
        s8 = load_image_dir(d8)[0]
        s16 = load_image_dir(d16)[0]
        assert np.abs(s8.image - s16.image).max() < 1e-2


_WHITESPACE = st.binary(min_size=1, max_size=4).map(
    lambda b: bytes(b" \t\n\r\x0b\x0c"[v % 6] for v in b))
_COMMENT = st.binary(max_size=12).map(
    lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
# Between two header tokens: whitespace runs and comments, at least one.
_SEPARATOR = st.lists(st.one_of(_WHITESPACE, _COMMENT), min_size=1,
                      max_size=4).map(b"".join)


class TestPgmProperties:
    @given(data=st.data(), maxval=st.integers(1, 65535),
           h=st.integers(1, 4), w=st.integers(1, 4))
    def test_any_valid_header_returns_payload(self, tmp_path_factory, data,
                                              maxval, h, w):
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        values = data.draw(hnp.arrays(dtype, (h, w),
                                      elements=st.integers(0, maxval)))
        seps = [data.draw(_SEPARATOR) for _ in range(3)]
        last = data.draw(_WHITESPACE.map(lambda b: b[:1]))
        header = b"P5" + b"".join(sep + str(v).encode()
                                  for sep, v in zip(seps, (w, h, maxval)))
        path = tmp_path_factory.mktemp("pgm") / "x.pgm"
        path.write_bytes(header + last + values.tobytes())
        out, _ = read_pgm(path)
        assert out.shape == (h, w) and out.dtype.itemsize == dtype.itemsize
        assert np.array_equal(out, values)

    @given(tail=st.binary(max_size=64))
    def test_arbitrary_bytes_give_array_or_named_error(self, tmp_path_factory,
                                                       tail):
        path = tmp_path_factory.mktemp("pgm") / "x.pgm"
        path.write_bytes(b"P5" + tail)
        try:
            out, _ = read_pgm(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert out.ndim == 2 and out.dtype in (np.uint8, np.uint16)
