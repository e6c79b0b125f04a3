"""Command-line front end: each command maps its arguments onto harness stages.

A command that builds a config takes one flag per field of that config's
dataclass, so every default is written once, in the dataclass.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

from . import cae as cae_mod
from . import data as data_mod
from . import harness
from . import recmodel as rec_mod
from .metrics import format_report


# field -> flag, where the flag is not the field's name with dashes
FLAG_ALIASES = {
    "n_users": "--users", "n_restaurants": "--restaurants", "target_ratio": "--ratio",
    "signal_strength": "--signal", "image_size": "--size", "input_height": "--size",
    "loss_kind": "--loss", "batch_size": "--batch", "learning_rate": "--lr",
    "rec_lr": "--lr", "embed_dim": "--embed", "n_reduce_blocks": "--reduce-blocks",
    "decision_threshold": "--threshold", "rec_patience": "--patience",
    "rec_max_epochs": "--max-epochs", "image_feature_dim": "--feature-dim",
    "data_dir": "--data", "out_dir": "--out",
}
# the classifier's sizes, which train-rec and grid-search take from the data
DATA_SIZED = ("n_users", "n_restaurants", "image_feature_dim")


def _add_config_flags(parser, cls, skip=()):
    """One flag per field of the dataclass `cls` outside `skip`, parsed by the
    field's annotation and defaulting to its default; a field without a default
    is a required flag. Each flag stores into its field's name."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in skip:
            continue
        flag = FLAG_ALIASES.get(f.name, "--" + f.name.replace("_", "-"))
        hint = hints[f.name]  # `X | None` parses as X
        kind = next(t for t in (*typing.get_args(hint), hint) if t is not type(None))
        if f.default is MISSING:
            parser.add_argument(flag, dest=f.name, type=kind, required=True)
        else:
            parser.add_argument(flag, dest=f.name, type=kind, default=f.default,
                                help="default: %(default)s")


def _config_flags(cls, args):
    """The parsed values of the flags `_add_config_flags` made for `cls`, by field."""
    parsed = vars(args)
    return {f.name: parsed[f.name] for f in fields(cls) if f.name in parsed}


def _floats(text):
    return [float(v) for v in text.split(",")]


def _ints(text):
    return [int(v) for v in text.split(",")]


def _load_split_dir(split_dir):
    """Prefer the augmented split file when one exists."""
    split_dir = Path(split_dir)
    aug = split_dir / "augmented_split.jsonl"
    plain = split_dir / "split.jsonl"
    path = aug if aug.exists() else plain
    if not path.exists():
        raise FileNotFoundError(f"no split file found under {split_dir}")
    return data_mod.load_split(path)


def cmd_synth(args):
    config = data_mod.SynthConfig(**_config_flags(data_mod.SynthConfig, args))
    manifest_path, records = data_mod.generate_synthetic(config, args.out)
    print(f"wrote {len(records)} reviews to {manifest_path}")


def cmd_split(args):
    split = harness.split_manifest(args.manifest, args.seed, args.out)
    for part in data_mod.PARTITIONS:
        print(f"{part}: {len(split.rows_in(part))} images")


def cmd_augment(args):
    split = data_mod.load_split(Path(args.split) / "split.jsonl")
    full = harness.materialize_augmentation(split, args.data, args.out)
    print(f"materialized {len(full.rows) - len(split.rows)} augmented images")


def cmd_train_cae(args):
    # --size sets both dimensions
    config = cae_mod.CaeConfig(**_config_flags(cae_mod.CaeConfig, args),
                               input_width=args.input_height)
    split = data_mod.load_split(Path(args.split) / "split.jsonl")
    # fit_cae reads the train and validation images only
    cae_rows = replace(split, rows=[r for r in split.rows if r.partition != "test"])
    images = harness.load_images(cae_rows, (args.data,), config.input_height)
    _, history = harness.fit_cae(split, images, config, args.out)
    with open(Path(args.out) / "cae_history.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(history), fh, indent=2)
    print(f"best epoch {history.best_epoch}, "
          f"val loss {min(history.val_loss):.6f}")


def cmd_extract(args):
    model = harness.load_checkpoint(args.cae)
    split = _load_split_dir(args.split)
    images = harness.load_images(split, (args.data, args.split), model.config.input_height)
    features = harness.cae_features(model, images)
    data_mod.save_feature_file(features, args.out)
    print(f"wrote {len(features)} feature vectors of length "
          f"{model.config.code_length} to {args.out}")


def cmd_train_rec(args):
    split = _load_split_dir(args.split)
    features = data_mod.load_feature_file(args.features)
    config = harness.classifier_config(split, features,
                                       **_config_flags(rec_mod.RecConfig, args))
    model, history = harness.train_classifier(split, features, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.save_checkpoint(model, out / "rec.ckpt")
    with open(out / "rec_history.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(history), fh, indent=2)
    print(f"best epoch {history.best_epoch}, "
          f"val b_score {max(history.val_b_score):.4f}")


def cmd_evaluate(args):
    model = harness.load_checkpoint(args.model)
    split = _load_split_dir(args.split)
    features = data_mod.load_feature_file(args.features)
    report = harness.evaluate_partition(model, split, features, args.partition,
                                        model.config.decision_threshold)
    print(f"[{args.partition}] {report.counts.total} triads")
    print(format_report(report))


def cmd_grid_search(args):
    split = _load_split_dir(args.split)
    features = data_mod.load_feature_file(args.features)
    train, val = harness.classifier_batches(split, features)
    base = harness.classifier_config(split, features, embed_dim=args.embeds[0],
                                     **_config_flags(rec_mod.RecConfig, args))
    rows, best = rec_mod.grid_search(train, val, args.lrs, args.embeds, base,
                                     patience=base.patience)
    for row in rows:
        print(f"lr={row['lr']:g} embed={row['embed_dim']} "
              f"val_b_score={row['val_b_score']:.4f}")
    print(f"best: lr={best[0]:g} embed={best[1]}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "best": {"lr": best[0], "embed_dim": best[1]}},
                      fh, indent=2)


def cmd_run(args):
    config = harness.ExperimentConfig(**_config_flags(harness.ExperimentConfig, args))
    report = harness.run_experiment(config)
    for part, m in report.metrics.items():
        print(f"[{part}]")
        print(format_report(m))
        print()


def cmd_ablation(args):
    config = harness.ExperimentConfig(**_config_flags(harness.ExperimentConfig, args))
    result = harness.run_ablation(config, tuple(args.block_counts))
    print(result["table"])


def build_parser():
    parser = argparse.ArgumentParser(prog="platerec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_config_flags(p, data_mod.SynthConfig, skip=("reviews_per_user", "images_per_review"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth, stage="synth")

    p = sub.add_parser("split", help="three-way constraint-aware split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split, stage="split")

    p = sub.add_parser("augment", help="materialize minority-class augmentation")
    p.add_argument("--split", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment, stage="augment")

    p = sub.add_parser("train-cae", help="train the autoencoder on the original train set")
    p.add_argument("--split", required=True)
    p.add_argument("--data", required=True)
    _add_config_flags(p, cae_mod.CaeConfig, skip=("input_width", "input_channels"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_cae, stage="train-cae")

    p = sub.add_parser("extract", help="encode all split images with a trained autoencoder")
    p.add_argument("--cae", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract, stage="extract")

    p = sub.add_parser("train-rec", help="train the triad classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    _add_config_flags(p, rec_mod.RecConfig, skip=DATA_SIZED)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_rec, stage="train-rec")

    p = sub.add_parser("evaluate", help="evaluate a trained classifier on a partition")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--partition", default="test", choices=data_mod.PARTITIONS)
    p.set_defaults(func=cmd_evaluate, stage="evaluate")

    p = sub.add_parser("grid-search", help="grid search over learning rate and embedding size")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    _add_config_flags(p, rec_mod.RecConfig, skip=DATA_SIZED + ("learning_rate", "embed_dim"))
    p.add_argument("--lr", dest="lrs", type=_floats, default=[0.001, 0.0001])
    p.add_argument("--embed", dest="embeds", type=_ints, default=[128, 256, 512])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grid_search, stage="grid-search", patience=6)

    p = sub.add_parser("run", help="full pipeline: split, augment, train, evaluate")
    _add_config_flags(p, harness.ExperimentConfig)
    p.set_defaults(func=cmd_run, stage="run")

    p = sub.add_parser("ablation", help="compare one vs two reduce blocks")
    _add_config_flags(p, harness.ExperimentConfig, skip=("n_reduce_blocks",))
    p.add_argument("--reduce-blocks", dest="block_counts", type=_ints, default=[1, 2])
    p.set_defaults(func=cmd_ablation, stage="ablation")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except harness.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: stage {args.stage!r} failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
