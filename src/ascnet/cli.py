"""Command-line entry point.

Subcommands: synth, train, eval, gradcheck, bench, ratefield.
Exit codes: 0 success, 1 usage error, 2 runtime error, 3 gradcheck failure.
stdout carries machine-readable results, stderr diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

from . import data, models, training


def _positive_int(value):
    iv = int(value)
    if iv < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return iv


def _seed_list(value):
    seeds = [int(s) for s in value.split(",") if s.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError("must name at least one seed")
    return seeds


def _build_parser():
    parser = argparse.ArgumentParser(prog="ascnet", description=__doc__)
    defaults = training.TrainConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file overriding corpus defaults")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train", help="train a model")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--model", required=True, choices=models.VARIANTS)
    p.add_argument("--data", required=True)
    p.add_argument("--iters", type=_positive_int, default=defaults.iterations)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", help="training report CSV path")
    p.add_argument("--log-every", type=_positive_int, default=defaults.log_every)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pooled", action="store_true",
                   help="pool counts over the dataset instead of per-image means")

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.set_defaults(run=_cmd_gradcheck)
    p.add_argument("--target", required=True,
                   choices=list(training.GRADCHECK_TARGETS))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="train and compare the three 7-layer models")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--data", required=True)
    p.add_argument("--iters", type=_positive_int, default=defaults.iterations)
    p.add_argument("--seeds", type=_seed_list, default="1,2,3")
    p.add_argument("--lr", type=float, default=defaults.lr)

    p = sub.add_parser("ratefield", help="export the learned rate field")
    p.set_defaults(run=_cmd_ratefield)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out-prefix", required=True)

    return parser


def _splits(root):
    """A corpus's (train, test) directories: train/ or else the root, and
    test/ or else None."""
    root = Path(root)
    train, test = root / "train", root / "test"
    return train if train.is_dir() else root, test if test.is_dir() else None


def _cmd_synth(args):
    # Writing over a corpus would leave the old run's surplus images beside
    # the new ones, so refuse one up front.
    out = Path(args.out)
    held = [n for n in ("train", "test", "manifest.json") if (out / n).exists()]
    if held:
        raise ValueError(f"--out {out}: already holds {', '.join(held)}; "
                         "synth writes only a new corpus")
    cfg_kwargs = {}
    try:
        if args.config:
            with open(args.config) as f:
                cfg_kwargs = json.load(f)
            if not isinstance(cfg_kwargs, dict):
                raise ValueError("expected a JSON object of SynthConfig fields")
        if args.seed is not None:
            cfg_kwargs["seed"] = args.seed
        # An unknown field or a value of the wrong type is a TypeError.
        cfg = data.SynthConfig(**cfg_kwargs)
        train_set, test_set = data.generate_synth(cfg)
    except (TypeError, ValueError, RuntimeError) as exc:
        raise ValueError(f"{args.config or '--seed'}: {exc}") from None
    data.write_samples(train_set, out / "train")
    data.write_samples(test_set, out / "test")
    manifest = dataclasses.asdict(cfg)
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(train_set)} train + {len(test_set)} test pairs to {out}")
    return 0


def _load_corpus(root, variants):
    """A corpus's train samples, its test samples (None without test/) and
    each variant's spec, built for the train images. test/ is read and
    checked against the specs before any training: a bad test file then
    costs no run and leaves no checkpoint behind."""
    train_dir, test_dir = _splits(root)
    train_set = data.load_image_dir(train_dir)
    in_ch, h, w = train_set[0].image.shape[1:]
    specs = [models.ModelSpec(v, height=h, width=w, in_channels=in_ch)
             for v in variants]
    test_set = None
    if test_dir:
        test_set = data.load_image_dir(test_dir)
        for spec in specs:
            spec.check_input(test_set[0].image.shape, test_dir, train_dir)
    return train_set, test_set, specs


def _cmd_train(args):
    cfg = training.TrainConfig(iterations=args.iters, lr=args.lr, seed=args.seed,
                               deterministic=args.deterministic,
                               log_every=args.log_every)
    # The outputs are written only after the last iteration: a bad path
    # found then would cost the whole run, and two outputs on one file
    # would leave only the last one written.
    outputs = [("--out", args.out)]
    if args.report:
        outputs += [("--report", args.report),
                    ("--report metrics file", str(args.report) + ".metrics.txt")]
    claimed = {}
    for flag, path in outputs:
        if not Path(path).parent.is_dir():
            raise ValueError(f"{flag} {path}: directory {Path(path).parent} "
                             "does not exist")
        if Path(path).is_dir():
            raise ValueError(f"{flag} {path}: is a directory")
        key = Path(path).resolve()
        if key in claimed:
            raise ValueError(f"{flag} {path}: same file as {claimed[key]}")
        claimed[key] = f"{flag} {path}"
    train_set, test_set, (spec,) = _load_corpus(args.data, [args.model])
    try:
        model, report = training.train(models.build_model(spec, cfg.seed),
                                       train_set, cfg)
    except training.TrainingDiverged as exc:
        print(f"training diverged at iteration {exc.iteration}", file=sys.stderr)
        return 2
    models.save_checkpoint(model, args.out)
    if args.report:
        report.to_csv(args.report)

    if test_set is not None:
        text = training.evaluate(model, test_set).summary()
        print(text)
        if args.report:
            with open(str(args.report) + ".metrics.txt", "w") as f:
                f.write(text + "\n")
    return 0


def _cmd_eval(args):
    model = models.load_checkpoint(args.ckpt)
    data_dir = _splits(args.data)[1] or args.data
    samples = data.load_image_dir(data_dir)
    model.spec.check_input(samples[0].image.shape, data_dir,
                           f"checkpoint {args.ckpt}")
    print(training.evaluate(model, samples, pooled=args.pooled).summary())
    return 0


def _cmd_gradcheck(args):
    report = training.grad_check(args.target, seed=args.seed)
    print(f"target={report.target}")
    for e in report.entries:
        print(f"{e.status:4s} {e.group:24s} max_rel_err={e.max_rel_err:.3e} "
              f"tol={e.tol:.0e}")
    return 0 if report.passed else 3


def _cmd_bench(args):
    cfgs = [training.TrainConfig(iterations=args.iters, lr=args.lr, seed=seed)
            for seed in args.seeds]
    train_set, test_set, specs = _load_corpus(
        args.data, [models.CLASSIC7, models.DILATED7, models.ASCNET7])
    if test_set is None:
        raise ValueError(f"{args.data}: bench needs train/ and test/ splits; "
                         "without test/ it would score its training images")
    print("note: synthetic desk-scale benchmark; absolute metric values are "
          "not comparable to full-scale published results", file=sys.stderr)

    rows = []
    for spec in specs:
        per_seed = []
        for cfg in cfgs:
            model, _ = training.train(models.build_model(spec, cfg.seed),
                                      train_set, cfg)
            per_seed.append(training.evaluate(model, test_set))
        rows.append((
            spec.variant,
            statistics.median(r.dice for r in per_seed),
            statistics.median(r.precision for r in per_seed),
            statistics.median(r.recall for r in per_seed),
        ))
    rows.sort(key=lambda r: r[1], reverse=True)

    print("| Model | Dice | Precision | Recall |")
    print("|-------|------|-----------|--------|")
    for name, d, p, r in rows:
        print(f"| {name} | {d:.4f} | {p:.4f} | {r:.4f} |")
    return 0


def _cmd_ratefield(args):
    model = models.load_checkpoint(args.ckpt)
    if not model.is_adaptive:
        raise ValueError(f"{args.ckpt}: variant {model.spec.variant!r} has no "
                         "rate field (only ascnet variants learn one)")

    img_path = Path(args.image)
    image = data.decode(*data.read_pgm(img_path), img_path)
    model.spec.check_input(image.shape, img_path, f"checkpoint {args.ckpt}")
    # Everything is read and checked before anything is written: a bad
    # corpus file, or a rate field that `model_forward` finds non-finite
    # as it does in `eval`, leaves no partial export behind.
    labels = None
    lbl_path = data.label_path(img_path)
    meta_path = img_path.parent / "meta.csv"
    if lbl_path is not None and lbl_path.exists():
        labels = data.read_label(lbl_path, image.shape[2:])
        meta = []
        if meta_path.exists():
            meta = data.read_meta(meta_path).get(data.image_index(img_path), [])

    _, rates = models.model_forward(model, image)
    data.export_rate_field(rates, args.out_prefix)

    stats = {"mean": rates.mean()}
    if labels is not None:
        stats.update(data.rate_stats(rates, labels, meta))
    stats_lines = [f"{k}={float(v)!r}" for k, v in stats.items()]
    with open(str(args.out_prefix) + ".stats.txt", "w") as f:
        f.write("\n".join(stats_lines) + "\n")
    print("\n".join(stats_lines))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # exit code 1 here.
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
