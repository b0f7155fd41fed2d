import json

import numpy as np
import pytest

from ascnet import data, models, tensor, training
from ascnet.cli import main
from ascnet.models import ModelSpec, build_model, save_checkpoint

SMALL_CFG = {
    "num_train": 6,
    "num_test": 3,
    "height": 32,
    "width": 32,
    "large_radius": [6.0, 7.0],
    "small_per_image": [1, 2],
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_CFG))
    assert main(["synth", "--out", str(out), "--config", str(cfg_path),
                 "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def trained_ckpt(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    ckpt = out / "asc.asct"
    assert main(["train", "--model", "ascnet7", "--data", str(corpus_dir),
                 "--iters", "30", "--seed", "1", "--out", str(ckpt)]) == 0
    return ckpt


class TestSynth:
    def test_writes_pairs_and_manifest(self, corpus_dir):
        assert len(list((corpus_dir / "train").glob("img_*.pgm"))) == 6
        assert len(list((corpus_dir / "test").glob("img_*.pgm"))) == 3
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_seed_reproducible(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CFG))
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--out", str(out), "--config", str(cfg_path),
                         "--seed", "5"]) == 0
            dirs.append(out)
        for rel in ["train/img_0000.pgm", "train/lbl_0003.pgm", "test/img_0002.pgm",
                    "train/meta.csv", "manifest.json"]:
            assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()

    def test_manifest_regenerates_same_corpus(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        cfg = data.SynthConfig(**{
            k: tuple(v) if isinstance(v, list) else v for k, v in manifest.items()
        })
        train_set, _ = data.generate_synth(cfg)
        loaded = data.load_image_dir(corpus_dir / "train")
        for a, b in zip(train_set, loaded):
            assert np.array_equal(a.labels, b.labels)

    def test_unwritable_path_fails(self):
        assert main(["synth", "--out", "/proc/nope"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "JSON object"),
        ('{"hieght": 40}', "hieght"),
        ('{"height": "abc"}', "not supported"),
        ('{"num_train": 2,', "line 1"),
        ('{"height": 32, "width": 32}', "large_radius"),
        ('{"noise_sigma": 0, "small_per_image": [0, 0], '
         '"large_per_image": [0, 0]}', "noise_sigma"),
        ('{"large_per_image": [8, 8], "max_place_tries": 5}', "max_place_tries"),
    ])
    def test_bad_config_names_file(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: " in err and message in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("text, field", [
        ('{"num_train": 2.5}', "num_train"),
        ('{"height": 64.5}', "height"),
        ('{"seed": "x"}', "seed"),
        ('{"seed": true}', "seed"),
        ('{"small_radius": 3}', "small_radius"),
    ])
    def test_config_field_type_names_file_and_field(self, tmp_path, capsys,
                                                    text, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: {field}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, field", [
        ('{"seed": -1}', "seed"),
        ('{"noise_sigma": -1}', "noise_sigma"),
        ('{"small_per_image": [3, 1]}', "small_per_image"),
        ('{"large_per_image": [-1, 1]}', "large_per_image"),
        ('{"max_place_tries": 0}', "max_place_tries"),
        ('{"num_train": -1, "num_test": 1}', "num_train"),
        ('{"num_test": -2}', "num_test"),
        ('{"outline_width": -1}', "outline_width"),
        ('{"outline_width": 0}', "outline_width"),
        ('{"small_radius": [4, 2]}', "small_radius"),
        ('{"background_level": 3.0, "foreground_level": 7.0}', "background_level"),
        ('{"foreground_level": -0.5}', "foreground_level"),
        ('{"height": 16}', "height"),
        ('{"width": 31}', "width"),
        ('{"small_radius": [2, 12]}', "small_radius"),
    ])
    def test_config_value_out_of_range_names_file_and_field(
            self, tmp_path, capsys, text, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--config", str(cfg_path)]) == 2
        value = json.loads(text)[field]
        err = capsys.readouterr().err
        assert f"{cfg_path}: {field}: {value!r} " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("held", ["train", "test", "manifest.json"])
    def test_existing_corpus_refused(self, tmp_path, capsys, held):
        out = tmp_path / "out"
        out.mkdir()
        (out / "cfg.json").write_text(json.dumps(SMALL_CFG))
        if held == "manifest.json":
            (out / held).write_text("{}")
        else:
            (out / held).mkdir()
        before = sorted(p.name for p in out.iterdir())
        assert main(["synth", "--out", str(out), "--config",
                     str(out / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}: " in err and held in err
        assert sorted(p.name for p in out.iterdir()) == before


class TestTrainEval:
    def test_single_iteration_writes_outputs(self, corpus_dir, tmp_path):
        ckpt = tmp_path / "m.asct"
        report = tmp_path / "rep.csv"
        rc = main(["train", "--model", "classic7", "--data", str(corpus_dir),
                   "--iters", "1", "--seed", "0", "--out", str(ckpt),
                   "--report", str(report)])
        assert rc == 0
        assert ckpt.exists()
        lines = report.read_text().splitlines()
        assert lines[0] == "iter,loss,seconds"
        assert len(lines) == 2

    def test_checkpoint_records_variant(self, corpus_dir, tmp_path):
        ckpt = tmp_path / "d.asct"
        assert main(["train", "--model", "dilated7", "--data", str(corpus_dir),
                     "--iters", "1", "--seed", "0", "--out", str(ckpt)]) == 0
        model = models.load_checkpoint(ckpt)
        assert model.spec.variant == "dilated7"

    def test_deterministic_runs_byte_identical(self, corpus_dir, tmp_path):
        blobs = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"{name}.asct"
            report = tmp_path / f"{name}.csv"
            assert main(["train", "--model", "ascnet7", "--data", str(corpus_dir),
                         "--iters", "10", "--seed", "42", "--deterministic",
                         "--out", str(ckpt), "--report", str(report)]) == 0
            blobs.append(ckpt.read_bytes() + report.read_bytes())
        assert blobs[0] == blobs[1]

    def test_rate_network_divergence_names_iteration(self, corpus_dir, tmp_path,
                                                      capsys, monkeypatch):
        build = models.build_model

        def diverged(*args, **kwargs):
            model = build(*args, **kwargs)
            model.ratenet.layers[0].weights[...] = np.inf
            return model

        monkeypatch.setattr(models, "build_model", diverged)
        with np.errstate(invalid="ignore"):
            rc = main(["train", "--model", "ascnet7", "--data", str(corpus_dir),
                       "--iters", "3", "--out", str(tmp_path / "m.asct")])
        assert rc == 2
        assert "training diverged at iteration 1" in capsys.readouterr().err
        assert not (tmp_path / "m.asct").exists()

    @pytest.fixture
    def no_training(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(training, "train", never)

    @pytest.mark.parametrize("flag", ["--out", "--report"])
    def test_missing_output_directory_refused_before_training(
            self, corpus_dir, tmp_path, capsys, no_training, flag):
        paths = {"--out": tmp_path / "m.asct", "--report": tmp_path / "rep.csv"}
        paths[flag] = missing = tmp_path / "missing" / "x"
        rc = main(["train", "--model", "classic7", "--data", str(corpus_dir),
                   "--iters", "2", "--out", str(paths["--out"]),
                   "--report", str(paths["--report"])])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{flag} {missing}: " in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out, report, flag, path, message", [
        ("m", "m", "--report", "m", "same file as --out"),
        ("d/../m", "m", "--report", "m", "same file as --out"),
        ("r.metrics.txt", "r", "--report metrics file", "r.metrics.txt",
         "same file as --out"),
        ("d", None, "--out", "d", "is a directory"),
        ("m", "d", "--report", "d", "is a directory"),
    ])
    def test_directory_or_shared_output_refused_before_training(
            self, corpus_dir, tmp_path, capsys, no_training, out, report, flag,
            path, message):
        (tmp_path / "d").mkdir()
        argv = ["train", "--model", "classic7", "--data", str(corpus_dir),
                "--iters", "2", "--out", str(tmp_path / out)]
        if report:
            argv += ["--report", str(tmp_path / report)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{flag} {tmp_path / path}: {message}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "d"]
        assert list((tmp_path / "d").iterdir()) == []

    def test_eval_with_non_finite_rates_fails_cleanly(self, corpus_dir, tmp_path,
                                                      capsys):
        model = build_model(ModelSpec("ascnet7", 2, 32, 32), 0)
        model.ratenet.layers[0].weights[...] = np.inf
        ckpt = tmp_path / "inf.asct"
        save_checkpoint(model, ckpt)
        with np.errstate(invalid="ignore"):
            rc = main(["eval", "--ckpt", str(ckpt), "--data", str(corpus_dir)])
        assert rc == 2
        assert "rate field contains non-finite values" in capsys.readouterr().err

    def test_eval_prints_metrics(self, trained_ckpt, corpus_dir, capsys):
        assert main(["eval", "--ckpt", str(trained_ckpt),
                     "--data", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dice=0.")
        assert "precision=0." in out and "recall=0." in out

    def test_train_metrics_file_equals_eval_stdout(self, corpus_dir, tmp_path,
                                                   capsys):
        ckpt, report = tmp_path / "m.asct", tmp_path / "rep.csv"
        assert main(["train", "--model", "ascnet7", "--data", str(corpus_dir),
                     "--iters", "3", "--out", str(ckpt),
                     "--report", str(report)]) == 0
        train_out = capsys.readouterr().out
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(corpus_dir)]) == 0
        eval_out = capsys.readouterr().out
        metrics = (tmp_path / "rep.csv.metrics.txt").read_text()
        assert metrics == eval_out == train_out
        assert [line.split("=")[0] for line in metrics.splitlines()] == [
            "dice", "precision", "recall"]

    def test_eval_dim_mismatch(self, trained_ckpt, tmp_path):
        other = tmp_path / "other"
        cfg = data.SynthConfig(num_train=1, num_test=1, height=48, width=48)
        train_set, _ = data.generate_synth(cfg)
        data.write_samples(train_set, other)
        assert main(["eval", "--ckpt", str(trained_ckpt), "--data", str(other)]) == 2

    def test_eval_rejects_repeated_tensor(self, corpus_dir, tmp_path, capsys):
        # A second, all-zero layer0.weight appended to a valid checkpoint.
        ckpt, extra = tmp_path / "dup.asct", tmp_path / "extra.asct"
        model = build_model(ModelSpec("classic7", 2, 32, 32), 0)
        save_checkpoint(model, ckpt)
        first = model.layers[0].weights
        tensor.save_tensors(extra, {"layer0.weight": np.zeros_like(first)})
        blob = bytearray(ckpt.read_bytes())
        count = int.from_bytes(blob[6:10], "little")
        blob[6:10] = (count + 1).to_bytes(4, "little")
        ckpt.write_bytes(bytes(blob) + extra.read_bytes()[10:])
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(corpus_dir)]) == 2
        assert "repeated tensor name 'layer0.weight'" in capsys.readouterr().err

    def test_untrained_metrics_bounded(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "fresh.asct"
        save_checkpoint(build_model(ModelSpec("classic7", 2, 32, 32), 0), ckpt)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        vals = [float(kv.split("=")[1]) for kv in out.split()]
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("argv, message", [
        (["train", "--seed", "-1"], "seed: -1 must be >= 0"),
        (["train", "--lr", "nan"], "lr: nan must be finite and > 0"),
        (["train", "--lr", "inf"], "lr: inf must be finite and > 0"),
        (["gradcheck", "--target", "classic", "--seed", "-1"],
         "seed: -1 must be >= 0"),
        (["bench", "--seeds", "1,-2"], "seed: -2 must be >= 0"),
    ])
    def test_out_of_range_setting_names_field(self, corpus_dir, tmp_path, capsys,
                                              argv, message):
        ckpt = tmp_path / "m.asct"
        if argv[0] == "train":
            argv = argv + ["--model", "classic7", "--out", str(ckpt)]
        if argv[0] != "gradcheck":
            argv = argv + ["--data", str(corpus_dir), "--iters", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == "" and not ckpt.exists()

    def test_usage_error_exit_code(self):
        assert main(["train", "--model", "resnet", "--data", "x",
                     "--out", "y"]) == 1
        assert main(["train", "--model", "classic7", "--data", "x",
                     "--iters", "0", "--out", "y"]) == 1

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: ascnet [-h]"),
        (["train", "--help"], "usage: ascnet train [-h]"),
    ], ids=["top", "train"])
    def test_help_exits_0_with_usage_on_stdout(self, capsys, argv, usage):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage) and captured.err == ""


class TestCorpusErrors:
    """Malformed corpus files exit 2 with a message that names the file."""

    @pytest.fixture
    def corpus_copy(self, corpus_dir, tmp_path):
        import shutil

        return shutil.copytree(corpus_dir, tmp_path / "corpus")

    @staticmethod
    def _fresh_ckpt(tmp_path):
        ckpt = tmp_path / "fresh.asct"
        save_checkpoint(build_model(ModelSpec("ascnet7", 2, 32, 32), 0), ckpt)
        return ckpt

    def _eval(self, tmp_path, corpus):
        return main(["eval", "--ckpt", str(self._fresh_ckpt(tmp_path)),
                     "--data", str(corpus)])

    def _ratefield(self, tmp_path, img):
        return main(["ratefield", "--ckpt", str(self._fresh_ckpt(tmp_path)),
                     "--image", str(img), "--out-prefix", str(tmp_path / "rf")])

    def test_badly_named_image(self, corpus_copy, tmp_path, capsys):
        test_dir = corpus_copy / "test"
        extra = test_dir / "img_extra.pgm"
        extra.write_bytes((test_dir / "img_0000.pgm").read_bytes())
        (test_dir / "lbl_extra.pgm").write_bytes(
            (test_dir / "lbl_0000.pgm").read_bytes())
        assert self._eval(tmp_path, corpus_copy) == 2
        assert str(extra) in capsys.readouterr().err
        assert self._ratefield(tmp_path, extra) == 2
        assert str(extra) in capsys.readouterr().err
        assert not (tmp_path / "rf.csv").exists()
        # The name rule holds without meta.csv too.
        (test_dir / "meta.csv").unlink()
        assert self._ratefield(tmp_path, extra) == 2
        assert str(extra) in capsys.readouterr().err
        assert not (tmp_path / "rf.csv").exists()

    def test_meta_without_index_column(self, corpus_copy, tmp_path, capsys):
        for split in ("test", "train"):
            meta = corpus_copy / split / "meta.csv"
            lines = meta.read_text().splitlines()
            meta.write_text("\n".join(
                ",".join(line.split(",")[1:]) for line in lines) + "\n")
        meta = corpus_copy / "test" / "meta.csv"
        assert self._eval(tmp_path, corpus_copy) == 2
        err = capsys.readouterr().err
        assert f"{meta}:1" in err and "index" in err
        img = corpus_copy / "train" / "img_0000.pgm"
        assert self._ratefield(tmp_path, img) == 2
        assert str(corpus_copy / "train" / "meta.csv") in capsys.readouterr().err

    def test_non_numeric_meta_field(self, corpus_copy, tmp_path, capsys):
        meta = corpus_copy / "test" / "meta.csv"
        lines = meta.read_text().splitlines()
        row = lines[2].split(",")
        lines[2] = ",".join([row[0], "abc"] + row[2:])
        meta.write_text("\n".join(lines) + "\n")
        assert self._eval(tmp_path, corpus_copy) == 2
        err = capsys.readouterr().err
        assert f"{meta}:3" in err and "'abc'" in err
        img = corpus_copy / "test" / "img_0000.pgm"
        assert self._ratefield(tmp_path, img) == 2
        assert f"{meta}:3" in capsys.readouterr().err


    def test_two_names_one_index(self, corpus_copy, tmp_path, capsys):
        train_dir = corpus_copy / "train"
        for prefix in ("img", "lbl"):
            (train_dir / f"{prefix}_1.pgm").write_bytes(
                (train_dir / f"{prefix}_0001.pgm").read_bytes())
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--model", "classic7", "--data", str(corpus_copy),
                     "--iters", "1", "--out", str(out / "m.asct"),
                     "--report", str(out / "rep.csv")]) == 2
        captured = capsys.readouterr()
        assert (f"{train_dir / 'img_1.pgm'}: sample index 1 is also that of "
                f"{train_dir / 'img_0001.pgm'}" in captured.err)
        assert captured.out == "" and not list(out.iterdir())

    def test_mis_sized_label(self, corpus_copy, tmp_path, capsys):
        lbl = corpus_copy / "test" / "lbl_0000.pgm"
        data.write_pgm(lbl, np.zeros((16, 16), dtype=np.uint8), maxval=255)
        assert self._eval(tmp_path, corpus_copy) == 2
        assert f"{lbl}: label dims" in capsys.readouterr().err
        assert self._ratefield(tmp_path, corpus_copy / "test" / "img_0000.pgm") == 2
        assert f"{lbl}: label dims" in capsys.readouterr().err
        assert not list(tmp_path.glob("rf.*"))

    def test_constant_image(self, corpus_copy, tmp_path, capsys):
        img = corpus_copy / "test" / "img_0000.pgm"
        data.write_pgm(img, np.full((32, 32), 7), maxval=65535)
        assert self._eval(tmp_path, corpus_copy) == 2
        assert f"{img}: cannot normalize a constant image" in capsys.readouterr().err
        assert self._ratefield(tmp_path, img) == 2
        assert f"{img}: cannot normalize" in capsys.readouterr().err

    def test_non_binary_label(self, corpus_copy, tmp_path, capsys):
        ckpt, report = tmp_path / "m.asct", tmp_path / "rep.csv"
        train = ["train", "--model", "classic7", "--data", str(corpus_copy),
                 "--iters", "1", "--out", str(ckpt), "--report", str(report)]
        for split, value in (("test", 9), ("train", 7)):
            lbl = corpus_copy / split / "lbl_0001.pgm"
            values, _ = data.read_pgm(lbl)
            values[3, 4] = value
            data.write_pgm(lbl, values, maxval=255)
            assert main(train) == 2
            captured = capsys.readouterr()
            assert (f"{lbl}: label value {value} at pixel (3,4) is not 0 or 1"
                    in captured.err)
            assert captured.out == "" and not list(tmp_path.glob("*.*"))
        test_lbl = corpus_copy / "test" / "lbl_0001.pgm"
        assert self._eval(tmp_path, corpus_copy) == 2
        captured = capsys.readouterr()
        assert f"{test_lbl}: label value 9" in captured.err
        assert captured.out == ""
        assert self._ratefield(tmp_path, corpus_copy / "test" / "img_0001.pgm") == 2
        assert f"{test_lbl}: label value 9" in capsys.readouterr().err
        assert not list(tmp_path.glob("rf.*"))

    @staticmethod
    def _write_doubled(img, index):
        """Write img's pair back into its directory as pair `index`, at
        twice its size."""
        for src, prefix in ((img, "img"), (data.corpus_pair(img)[1], "lbl")):
            values, _ = data.read_pgm(src)
            data.write_pgm(img.parent / f"{prefix}_{index:04d}.pgm",
                           values.repeat(2, axis=0).repeat(2, axis=1),
                           maxval=np.iinfo(values.dtype).max)

    @pytest.mark.parametrize("case", ["train_split_doubled", "bench_split_doubled",
                                      "test_pair_doubled", "eval_pair_doubled",
                                      "eval_ckpt_doubled"])
    def test_mixed_image_sizes(self, case, corpus_copy, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train", "--model", "classic7", "--data", str(corpus_copy),
                "--iters", "1", "--out", str(out / "m.asct"),
                "--report", str(out / "rep.csv")]
        test_dir = corpus_copy / "test"
        if case in ("train_split_doubled", "bench_split_doubled"):
            for img in sorted((corpus_copy / "train").glob("img_*.pgm")):
                self._write_doubled(img, data.corpus_pair(img)[0])
            if case == "bench_split_doubled":
                argv = ["bench", "--data", str(corpus_copy), "--iters", "1",
                        "--seeds", "1"]
            named = [f"{test_dir}: images are 32x32",
                     f"{corpus_copy / 'train'} holds 64x64"]
        elif case == "eval_ckpt_doubled":
            ckpt = tmp_path / "big.asct"
            save_checkpoint(build_model(ModelSpec("ascnet7", 2, 64, 64), 0), ckpt)
            argv = ["eval", "--ckpt", str(ckpt), "--data", str(corpus_copy)]
            named = [f"{test_dir}: images are 32x32", f"checkpoint {ckpt}"]
        else:
            self._write_doubled(test_dir / "img_0000.pgm", 99)
            if case == "eval_pair_doubled":
                argv = ["eval", "--ckpt", str(self._fresh_ckpt(tmp_path)),
                        "--data", str(corpus_copy)]
            named = [f"{test_dir / 'img_0099.pgm'}: image dims (64, 64) differ "
                     "from (32, 32) of img_0000.pgm"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert all(n in captured.err for n in named), captured.err
        assert captured.out == "" and not list(out.iterdir())

    @pytest.mark.parametrize("command, hw, in_channels", [
        ("ratefield", 64, 1), ("eval", 32, 3), ("ratefield", 32, 3)])
    def test_checkpoint_for_other_input_shape(self, command, hw, in_channels,
                                              corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "other.asct"
        spec = ModelSpec("ascnet7", 2, hw, hw, in_channels)
        save_checkpoint(build_model(spec, 0), ckpt)
        source = corpus_dir / "test"
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(corpus_dir)]
        if command == "ratefield":
            source = source / "img_0000.pgm"
            argv = ["ratefield", "--ckpt", str(ckpt), "--image", str(source),
                    "--out-prefix", str(tmp_path / "rf")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{source}: images are 32x32x1" in captured.err, captured.err
        assert f"checkpoint {ckpt} holds {hw}x{hw}x{in_channels}" in captured.err
        assert captured.out == "" and not list(tmp_path.glob("rf.*"))


class TestGradcheckCmd:
    @pytest.mark.parametrize("target", ["classic", "asc"])
    def test_pass_targets(self, target, capsys):
        assert main(["gradcheck", "--target", target]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_target_usage_error(self):
        assert main(["gradcheck", "--target", "nope"]) == 1


class TestBench:
    def test_table_shape_and_banner(self, corpus_dir, capsys):
        assert main(["bench", "--data", str(corpus_dir), "--iters", "5",
                     "--seeds", "1"]) == 0
        captured = capsys.readouterr()
        rows = [l for l in captured.out.splitlines() if l.startswith("| ")]
        assert len(rows) == 4  # header + 3 model rows
        assert "not comparable" in captured.err
        body = rows[1:]
        names = {r.split("|")[1].strip() for r in body}
        assert names == {"classic7", "dilated7", "ascnet7"}

    def test_data_without_splits_is_rejected(self, corpus_dir, tmp_path, capsys):
        flat = tmp_path / "flat"
        flat.mkdir()
        for f in (corpus_dir / "train").glob("*.pgm"):
            (flat / f.name).write_bytes(f.read_bytes())
        assert main(["bench", "--data", str(flat), "--iters", "2",
                     "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert f"{flat}: " in captured.err and "splits" in captured.err
        assert "| Model |" not in captured.out

    def test_train_split_without_test_is_rejected(self, corpus_dir, tmp_path,
                                                  capsys):
        import shutil

        only_train = tmp_path / "only_train"
        shutil.copytree(corpus_dir / "train", only_train / "train")
        assert main(["bench", "--data", str(only_train), "--iters", "2",
                     "--seeds", "1"]) == 2
        captured = capsys.readouterr()
        assert f"{only_train}: " in captured.err and "test/" in captured.err
        assert "| Model |" not in captured.out

    def test_bad_seeds_rejected(self, corpus_dir):
        assert main(["bench", "--data", str(corpus_dir), "--seeds", "x,y"]) == 1

    def test_empty_seed_list_is_usage_error(self, corpus_dir, capsys):
        assert main(["bench", "--data", str(corpus_dir), "--seeds", ","]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ascnet bench") and "--seeds" in err


class TestRateField:
    def test_fresh_checkpoint_exports_ones(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "fresh.asct"
        save_checkpoint(build_model(ModelSpec("ascnet7", 2, 32, 32), 0), ckpt)
        prefix = tmp_path / "rf"
        img = corpus_dir / "train" / "img_0000.pgm"
        assert main(["ratefield", "--ckpt", str(ckpt), "--image", str(img),
                     "--out-prefix", str(prefix)]) == 0
        csv = np.loadtxt(str(prefix) + ".csv", delimiter=",", ndmin=2)
        assert np.all(csv == 1.0)
        assert (tmp_path / "rf.pgm").exists()
        assert (tmp_path / "rf.stats.txt").exists()

    def test_stats_cover_populations(self, trained_ckpt, corpus_dir, tmp_path):
        prefix = tmp_path / "rf"
        img = corpus_dir / "train" / "img_0001.pgm"
        assert main(["ratefield", "--ckpt", str(trained_ckpt), "--image", str(img),
                     "--out-prefix", str(prefix)]) == 0
        text = (tmp_path / "rf.stats.txt").read_text()
        assert "small=" in text and "large=" in text and "background=" in text

    def test_stats_lines_are_plain_floats(self, trained_ckpt, corpus_dir,
                                          tmp_path, capsys):
        prefix = tmp_path / "rf"
        img = corpus_dir / "train" / "img_0001.pgm"
        assert main(["ratefield", "--ckpt", str(trained_ckpt), "--image", str(img),
                     "--out-prefix", str(prefix)]) == 0
        text = (tmp_path / "rf.stats.txt").read_text()
        assert capsys.readouterr().out == text
        keys = []
        for line in text.splitlines():
            key, value = line.split("=")
            float(value)
            keys.append(key)
        assert keys == ["mean", "small", "large", "background"]

    def test_image_without_label_writes_only_mean(self, corpus_dir, tmp_path):
        ckpt = tmp_path / "fresh.asct"
        save_checkpoint(build_model(ModelSpec("ascnet7", 2, 32, 32), 0), ckpt)
        for name in ("img_0000.pgm", "scan.pgm"):
            img = tmp_path / name
            img.write_bytes((corpus_dir / "train" / "img_0000.pgm").read_bytes())
            prefix = tmp_path / f"rf_{name}"
            assert main(["ratefield", "--ckpt", str(ckpt), "--image", str(img),
                         "--out-prefix", str(prefix)]) == 0
            assert (tmp_path / f"rf_{name}.stats.txt").read_text() == "mean=1.0\n"

    def test_diverged_checkpoint_exits_2_writes_nothing(self, corpus_dir,
                                                        tmp_path, capsys):
        model = build_model(ModelSpec("ascnet7", 2, 32, 32), 0)
        model.ratenet.layers[0].weights[...] = np.inf
        ckpt = tmp_path / "inf.asct"
        save_checkpoint(model, ckpt)
        img = corpus_dir / "train" / "img_0000.pgm"
        with np.errstate(invalid="ignore"):
            rc = main(["ratefield", "--ckpt", str(ckpt), "--image", str(img),
                       "--out-prefix", str(tmp_path / "rf")])
        assert rc == 2
        assert "rate field contains non-finite values" in capsys.readouterr().err
        assert not list(tmp_path.glob("rf.*"))

    def test_classic_checkpoint_rejected(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "c.asct"
        save_checkpoint(build_model(ModelSpec("classic7", 2, 32, 32), 0), ckpt)
        img = corpus_dir / "train" / "img_0000.pgm"
        rc = main(["ratefield", "--ckpt", str(ckpt), "--image", str(img),
                   "--out-prefix", str(tmp_path / "rf")])
        assert rc == 2
        assert "no rate field" in capsys.readouterr().err
