"""Command-line front end: each command maps its arguments onto harness stages."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import cae as cae_mod
from . import data as data_mod
from . import harness
from . import recmodel as rec_mod
from .metrics import format_report


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
    config = data_mod.SynthConfig(
        n_users=args.users, n_restaurants=args.restaurants,
        target_ratio=args.ratio, signal_strength=args.signal,
        image_size=args.size, seed=args.seed,
    )
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
    split = data_mod.load_split(Path(args.split) / "split.jsonl")
    config = cae_mod.CaeConfig(
        input_height=args.size, input_width=args.size, loss_kind=args.loss,
        batch_size=args.batch, patience=args.patience,
        max_epochs=args.max_epochs, learning_rate=args.lr, seed=args.seed,
    )
    # fit_cae reads the train and validation images only
    cae_rows = replace(split, rows=[r for r in split.rows if r.partition != "test"])
    images = harness.load_images(cae_rows, (args.data,), args.size)
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
    config = harness.classifier_config(
        split, features, embed_dim=args.embed, n_reduce_blocks=args.reduce_blocks,
        learning_rate=args.lr, batch_size=args.batch, patience=args.patience,
        max_epochs=args.max_epochs, decision_threshold=args.threshold, seed=args.seed,
    )
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
    base = harness.classifier_config(
        split, features, embed_dim=args.embed[0], batch_size=args.batch,
        max_epochs=args.max_epochs, seed=args.seed,
    )
    rows, best = rec_mod.grid_search(train, val, args.lr, args.embed, base,
                                     patience=args.patience)
    for row in rows:
        print(f"lr={row['lr']:g} embed={row['embed_dim']} "
              f"val_b_score={row['val_b_score']:.4f}")
    print(f"best: lr={best[0]:g} embed={best[1]}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"rows": rows, "best": {"lr": best[0], "embed_dim": best[1]}},
                      fh, indent=2)


def _experiment_config(args):
    return harness.ExperimentConfig(
        data_dir=args.data, out_dir=args.out, image_size=args.size,
        seed=args.seed, feature_source=args.feature_source,
        feature_file=args.feature_file, image_feature_dim=args.feature_dim,
        cae_max_epochs=args.cae_max_epochs, embed_dim=args.embed,
        rec_lr=args.lr, rec_patience=args.patience,
        rec_max_epochs=args.max_epochs, threshold=args.threshold,
    )


def cmd_run(args):
    report = harness.run_experiment(_experiment_config(args))
    for part, m in report.metrics.items():
        print(f"[{part}]")
        print(format_report(m))
        print()


def cmd_ablation(args):
    result = harness.run_ablation(_experiment_config(args), tuple(args.reduce_blocks))
    print(result["table"])


def _add_experiment_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-source", default="cae", choices=harness.FEATURE_SOURCES)
    p.add_argument("--feature-file", default=None)
    p.add_argument("--feature-dim", type=int, default=None)
    p.add_argument("--cae-max-epochs", type=int, default=100)
    p.add_argument("--embed", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--patience", type=int, default=12)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--threshold", type=float, default=0.5)


def build_parser():
    parser = argparse.ArgumentParser(prog="platerec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--restaurants", type=int, default=10)
    p.add_argument("--ratio", type=float, default=6.0)
    p.add_argument("--signal", type=float, default=0.8)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--loss", default="bce", choices=("bce", "mse"))
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--patience", type=int, default=6)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--embed", type=int, default=512)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--reduce-blocks", type=int, default=2, choices=(1, 2))
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--patience", type=int, default=12)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--lr", type=_floats, default=[0.001, 0.0001])
    p.add_argument("--embed", type=_ints, default=[128, 256, 512])
    p.add_argument("--patience", type=int, default=6)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_grid_search, stage="grid-search")

    p = sub.add_parser("run", help="full pipeline: split, augment, train, evaluate")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_run, stage="run")

    p = sub.add_parser("ablation", help="compare one vs two reduce blocks")
    _add_experiment_flags(p)
    p.add_argument("--reduce-blocks", type=_ints, default=[1, 2])
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
