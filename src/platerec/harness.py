"""End-to-end pipeline orchestration: split, augment, train, extract, evaluate.

Every stage materializes its artifacts (split file, augmented images,
feature file, checkpoints, reports) under the output directory so stages
can be re-run and inspected independently. One global seed determines the
split, the augmentation set, all initializations and dropout masks, and
therefore every reported metric.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import cae as cae_mod
from . import data as data_mod
from . import nn
from . import recmodel as rec_mod
from .metrics import MetricsReport, confusion_counts, compute_metrics, format_report

CHECKPOINT_VERSION = 1

FEATURE_SOURCES = ("cae", "feature-file", "random-projection")

KIND_OF_ORIGIN = {v: k for k, v in data_mod.ORIGIN_OF_KIND.items()}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

class CheckpointError(ValueError):
    pass


def save_checkpoint(model, path):
    """Header line (JSON) + raw little-endian float32 payload; bit-exact round trip.

    The payload is the model's arena, whose layout is the header's tensor
    directory: the tensors end to end in sorted-name order.
    """
    if isinstance(model, cae_mod.CaeModel):
        kind = "cae"
    elif isinstance(model, rec_mod.RecModel):
        kind = "rec"
    else:
        raise CheckpointError(f"cannot checkpoint object of type {type(model).__name__}")
    header = {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "config": asdict(model.config),
        "tensors": model.directory,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(model.arena.values.astype("<f4", copy=False))


# the model classes, built with no generator: their weights start at zero and
# the payload fills them, so a load draws no initialization
_MODEL_KINDS = {
    "cae": (cae_mod.CaeConfig, cae_mod.CaeModel),
    "rec": (rec_mod.RecConfig, rec_mod.RecModel),
}
# JSON value types accepted for each config field annotation; bools are rejected
_CONFIG_TYPES = {"int": int, "float": (int, float), "str": str}


def _model_from_header(kind, config, path):
    """Build the model a checkpoint header describes: every config field present,
    of its annotated type, and accepted by the config and the layers."""
    config_cls, model_cls = _MODEL_KINDS[kind]
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: checkpoint config must be a JSON object")
    annotations = {f.name: f.type for f in fields(config_cls)}
    if set(config) != set(annotations):
        raise CheckpointError(
            f"{path}: config fields differ from {config_cls.__name__}: "
            f"{sorted(set(config) ^ set(annotations))}"
        )
    for name, value in config.items():
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[annotations[name]]):
            raise CheckpointError(
                f"{path}: config field {name} must be of type {annotations[name]}, got {value!r}"
            )
    try:
        return model_cls(config_cls(**config), None)
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid config: {exc}") from exc


def load_checkpoint(path):
    """Read a checkpoint `save_checkpoint` wrote. Anything else raises CheckpointError
    naming the path: the tensor directory must be the one the writer lays out for
    the model, and the payload must hold exactly its values.

    The model is built with zero weights, and the payload is read straight
    into its arena, with no intermediate copy, and byte-swapped in place on a
    big-endian host.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: checkpoint header must be a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {header.get('format_version')}"
            )
        kind = header.get("kind")
        if not isinstance(kind, str) or kind not in _MODEL_KINDS:
            raise CheckpointError(f"{path}: unknown model kind {kind!r}")
        model = _model_from_header(kind, header.get("config"), path)

        expected, values = model.directory, model.arena.values
        directory = header.get("tensors")
        if not isinstance(directory, dict) or set(directory) != set(expected):
            raise CheckpointError(f"{path}: tensor directory does not match the model")
        for name, meta in expected.items():
            if directory[name] != meta:
                raise CheckpointError(
                    f"{path}: tensor {name}: file has {directory[name]!r}, "
                    f"the model needs {meta!r}"
                )
        # the read to EOF after a full arena returns b"" unless the payload is too long
        size = fh.readinto(memoryview(values).cast("B")) + len(fh.read())
    if size != values.nbytes:
        raise CheckpointError(
            f"{path}: payload holds {size} bytes, the tensors need {values.nbytes}"
        )
    if sys.byteorder == "big":
        values.byteswap(inplace=True)
    model.arena.version += 1
    return model


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def random_projection_features(images: dict[str, np.ndarray], dim, seed):
    """Seeded Gaussian projection of flattened pixels; an untrained control
    extractor standing in for pretrained-CNN features."""
    if not images:
        return {}
    n_in = next(iter(images.values())).size
    proj = nn.make_rng(seed, "random-projection").standard_normal((n_in, dim))
    proj = (proj / np.sqrt(n_in)).astype(np.float32)
    return {
        key: (img.reshape(-1).astype(np.float32) @ proj)
        for key, img in sorted(images.items())
    }


# ---------------------------------------------------------------------------
# Experiment configuration and report
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    data_dir: str
    out_dir: str
    image_size: int = 32
    seed: int = 0
    feature_source: str = "cae"
    feature_file: str | None = None
    image_feature_dim: int | None = None
    cae_loss: str = "bce"
    cae_lr: float = 0.001
    cae_batch: int = 32
    cae_patience: int = 6
    cae_max_epochs: int = 100
    embed_dim: int = 16
    n_reduce_blocks: int = 2
    rec_lr: float = 0.001
    rec_batch: int = 32
    rec_patience: int = 12
    rec_max_epochs: int = 100
    threshold: float = 0.5

    def __post_init__(self):
        if self.feature_source not in FEATURE_SOURCES:
            raise ValueError(f"unknown feature source {self.feature_source!r}")
        if self.feature_source == "feature-file" and not self.feature_file:
            raise ValueError("feature-file source needs a feature_file path")
        if self.image_feature_dim is not None and self.image_feature_dim < 1:
            raise ValueError(
                f"image_feature_dim must be positive, got {self.image_feature_dim}")
        # each stage's dataclass checks its own values; building them here makes a
        # bad value fail before any stage runs. Random projection takes any image
        # size, and any valid data sizes check the classifier's other fields.
        if self.feature_source == "cae":
            code_length = self.cae_config().code_length
            if self.image_feature_dim not in (None, code_length):
                raise ValueError(
                    f"image_feature_dim {self.image_feature_dim} differs from the "
                    f"autoencoder's code length {code_length}")
        rec_mod.RecConfig(n_users=1, n_restaurants=1, image_feature_dim=1,
                          **self.rec_hyperparameters(self.n_reduce_blocks))

    def cae_config(self) -> cae_mod.CaeConfig:
        """The autoencoder stage's config."""
        return cae_mod.CaeConfig(
            input_height=self.image_size, input_width=self.image_size,
            loss_kind=self.cae_loss, batch_size=self.cae_batch,
            patience=self.cae_patience, max_epochs=self.cae_max_epochs,
            learning_rate=self.cae_lr, seed=self.seed,
        )

    def rec_hyperparameters(self, n_reduce_blocks):
        """The classifier stage's RecConfig fields, all but the three data-sized
        ones that `classifier_config` fills in."""
        return dict(embed_dim=self.embed_dim, n_reduce_blocks=n_reduce_blocks,
                    learning_rate=self.rec_lr, batch_size=self.rec_batch,
                    patience=self.rec_patience, max_epochs=self.rec_max_epochs,
                    decision_threshold=self.threshold, seed=self.seed)


@dataclass
class RunReport:
    config: dict
    seed: int
    metrics: dict[str, MetricsReport]
    cae_history: dict | None
    rec_history: dict
    wall_times: dict[str, float]
    n_reduce_blocks: int

    def to_dict(self):
        return asdict(self)


class StageError(RuntimeError):
    """Pipeline failure tagged with the stage that caused it."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------
# Each stage is the one implementation of its pipeline step: prepare_data and
# train_and_evaluate chain them, and each CLI command runs one of them.

def split_manifest(manifest_path, seed, out_dir):
    """Three-way split of a review manifest, written to out_dir/split.jsonl."""
    split = data_mod.three_way_split(data_mod.load_manifest(manifest_path), seed)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    data_mod.save_split(split, Path(out_dir) / "split.jsonl")
    return split


def materialize_augmentation(split, data_dir, out_dir):
    """Augment minority train rows and write the transformed image files.

    Transforms run at stored resolution, before any resizing. The image made
    from `<path>` is written to out_dir/augmented/<origin>/<path>, so images
    of one basename in different directories stay apart; a path that is
    absolute or has a `..` part raises ValueError. Returns the split with one
    train row per transformed image appended, and writes it to
    out_dir/augmented_split.jsonl.
    """
    data_dir, out_dir = Path(data_dir), Path(out_dir)
    new_rows = []
    written = set()
    for row in data_mod.augment_minority(split.rows_in("train")):
        if row.origin == "original":
            continue
        data_mod.check_image_path(row.image_path)
        new_ref = f"augmented/{row.origin}/{row.image_path}"
        if new_ref not in written:
            img = data_mod.read_ppm(data_dir / row.image_path)
            out = data_mod.apply_transform(img, KIND_OF_ORIGIN[row.origin])
            (out_dir / new_ref).parent.mkdir(parents=True, exist_ok=True)
            data_mod.write_ppm(out, out_dir / new_ref)
            written.add(new_ref)
        new_rows.append(replace(row, image_path=new_ref))
    full = replace(split, rows=split.rows + new_rows)
    data_mod.save_split(full, out_dir / "augmented_split.jsonl")
    return full


def _load_resized(path, roots, size):
    for root in roots:
        candidate = Path(root) / path
        if candidate.exists():
            img = data_mod.read_ppm(candidate)
            if img.shape[:2] != (size, size):
                img = data_mod.resize_image(img, size, size)
            return img
    raise FileNotFoundError(f"image {path!r} not found under {list(map(str, roots))}")


def load_images(split, roots, size):
    """Every image of the split, resized to size x size, keyed by its path.

    Each path is looked up under the roots in order.
    """
    return {p: _load_resized(p, roots, size)
            for p in sorted({row.image_path for row in split.rows})}


def fit_cae(split, images, config: cae_mod.CaeConfig, out_dir):
    """Train the autoencoder on the split's original train images, early-stopped
    on its validation images, and write out_dir/cae.ckpt."""
    train = [images[r.image_path] for r in split.rows_in("train") if r.origin == "original"]
    val = [images[r.image_path] for r in split.rows_in("validation")]
    model, history = cae_mod.train_cae(cae_mod.build_cae(config), train, val, config)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, Path(out_dir) / "cae.ckpt")
    return model, history


def cae_features(model, images):
    """The autoencoder's bottleneck code of every image, keyed like `images`."""
    paths = sorted(images)
    return dict(zip(paths, cae_mod.encode_images(model, [images[p] for p in paths])))


@dataclass
class PreparedData:
    split: data_mod.SplitAssignment       # includes augmented train rows
    features: dict[str, np.ndarray]
    cae_history: dict | None
    wall_times: dict[str, float]


class _stage:
    """Time a stage into walls[name]; any failure becomes StageError(name).

    A class rather than a generator context manager: `contextlib.contextmanager`
    would re-raise a StopIteration from the stage bare (PEP 479 handling).
    """

    def __init__(self, name, walls):
        self.name, self.walls = name, walls

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.walls[self.name] = time.perf_counter() - self.t0
        elif issubclass(exc_type, Exception) and not issubclass(exc_type, StageError):
            raise StageError(self.name, exc) from exc


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """Stages up to and including feature extraction; artifacts land in out_dir."""
    data_dir, out_dir = Path(config.data_dir), Path(config.out_dir)
    walls = {}
    with _stage("split", walls):
        split = split_manifest(data_dir / "manifest.jsonl", config.seed, out_dir)
    with _stage("augment", walls):
        split = materialize_augmentation(split, data_dir, out_dir)
    with _stage("load-images", walls):
        images = load_images(split, (data_dir, out_dir), config.image_size)

    cae_history = None
    with _stage("features", walls):
        if config.feature_source == "cae":
            model, history = fit_cae(split, images, config.cae_config(), out_dir)
            cae_history = asdict(history)
            features = cae_features(model, images)
        elif config.feature_source == "random-projection":
            dim = 48 if config.image_feature_dim is None else config.image_feature_dim
            features = random_projection_features(images, dim, config.seed)
        else:
            features = data_mod.load_feature_file(config.feature_file)
            feature_dim = len(next(iter(features.values())))
            if config.image_feature_dim and feature_dim != config.image_feature_dim:
                raise ValueError(
                    f"feature file has vectors of length {feature_dim}, "
                    f"expected {config.image_feature_dim}"
                )
            missing = [p for p in images if p not in features]
            if missing:
                raise KeyError(f"feature file lacks {len(missing)} image references, "
                               f"first missing: {missing[0]!r}")
        data_mod.save_feature_file(features, out_dir / "features.txt")

    return PreparedData(split=split, features=features, cae_history=cae_history,
                        wall_times=walls)


def triads_to_batch(split, features) -> rec_mod.TriadBatch:
    """The classifier input for every row of `split`, ids mapped through its maps."""
    if not split.rows:
        raise ValueError("no triads to batch")
    return rec_mod.TriadBatch(
        users=np.array([split.user_index[r.user_id] for r in split.rows]),
        restaurants=np.array([split.restaurant_index[r.restaurant_id] for r in split.rows]),
        features=np.stack([features[r.image_path] for r in split.rows]),
        labels=np.array([r.label for r in split.rows]),
    )


def classifier_config(split, features, **hyperparameters) -> rec_mod.RecConfig:
    """RecConfig sized by the split's id maps and the feature vector length."""
    return rec_mod.RecConfig(
        n_users=len(split.user_index),
        n_restaurants=len(split.restaurant_index),
        image_feature_dim=len(next(iter(features.values()))),
        **hyperparameters,
    )


def classifier_batches(split, features):
    """(train, validation) batches the classifier trains and early-stops on;
    train includes the augmented rows."""
    return (triads_to_batch(split.triads("train"), features),
            triads_to_batch(split.triads("validation"), features))


def train_classifier(split, features, config: rec_mod.RecConfig):
    """Build the classifier and train it on the split; returns (model, history)."""
    train, val = classifier_batches(split, features)
    return rec_mod.train_recommender(rec_mod.build_recommender(config), train, val, config)


def evaluate_batch(model, batch, threshold) -> MetricsReport:
    probs = model.forward(batch, mode=nn.INFERENCE)
    return compute_metrics(confusion_counts(probs, batch.labels, threshold), threshold)


def evaluate_partition(model, split, features, partition, threshold) -> MetricsReport:
    """Metrics of one partition, on its original rows only.

    Augmented rows are training inputs, not observations, so they are never
    scored; this is the one definition of the train metrics.
    """
    originals = [r for r in split.rows_in(partition) if r.origin == "original"]
    return evaluate_batch(model, triads_to_batch(replace(split, rows=originals), features),
                          threshold)


def train_and_evaluate(prepared: PreparedData, config: ExperimentConfig, n_reduce_blocks):
    """Train the recommender on the augmented train rows and evaluate all partitions."""
    split, features = prepared.split, prepared.features
    rec_config = classifier_config(split, features,
                                   **config.rec_hyperparameters(n_reduce_blocks))
    model, history = train_classifier(split, features, rec_config)
    reports = {p: evaluate_partition(model, split, features, p, config.threshold)
               for p in data_mod.PARTITIONS if split.rows_in(p)}
    return model, history, reports


def _train_rec(prepared: PreparedData, config: ExperimentConfig, n_reduce_blocks,
               checkpoint_path) -> RunReport:
    """The train-rec stage: train, evaluate and checkpoint one classifier."""
    walls = dict(prepared.wall_times)
    with _stage("train-rec", walls):
        model, history, reports = train_and_evaluate(prepared, config, n_reduce_blocks)
        save_checkpoint(model, checkpoint_path)
    return RunReport(
        config=asdict(config), seed=config.seed, metrics=reports,
        cae_history=prepared.cae_history, rec_history=asdict(history),
        wall_times=walls, n_reduce_blocks=n_reduce_blocks,
    )


def run_experiment(config: ExperimentConfig) -> RunReport:
    prepared = prepare_data(config)
    report = _train_rec(prepared, config, config.n_reduce_blocks,
                        Path(config.out_dir) / "rec.ckpt")
    write_report(report, Path(config.out_dir) / "report.json")
    return report


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

METRIC_ROWS = ("sensitivity", "specificity", "precision", "f1", "b_score")
METRIC_LABELS = {"sensitivity": "Sens.", "specificity": "Spec.",
                 "precision": "Precision", "f1": "F1-Score", "b_score": "B-Score"}


def run_ablation(config: ExperimentConfig, block_counts=(1, 2)):
    """One recommender run per reduce-block count on identical splits and features.

    Returns {"variants": {str(n): RunReport}, "table": text} with the
    five-metric side-by-side comparison on the test partition.
    """
    for n in block_counts:
        replace(config, n_reduce_blocks=n)  # checks each count before any stage runs
    prepared = prepare_data(config)
    out_dir = Path(config.out_dir)
    variants = {str(n): _train_rec(prepared, config, n, out_dir / f"rec_{n}rb.ckpt")
                for n in block_counts}
    table = ablation_table(variants, partition="test")
    with open(out_dir / "ablation.json", "w", encoding="utf-8") as fh:
        json.dump({k: v.to_dict() for k, v in variants.items()}, fh, indent=2)
    with open(out_dir / "ablation.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return {"variants": variants, "table": table}


def ablation_table(variants: dict[str, RunReport], partition="test") -> str:
    cols = sorted(variants)
    header = f"{'':12s}" + "".join(f"{c + 'RB':>10s}" for c in cols)
    lines = [header]
    for metric in METRIC_ROWS:
        cells = []
        for c in cols:
            value = getattr(variants[c].metrics[partition], metric)
            cells.append(f"{'n/a':>10s}" if value is None else f"{value:>10.4f}")
        lines.append(f"{METRIC_LABELS[metric]:12s}" + "".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def write_report(report: RunReport, path):
    """Machine-readable JSON plus a plain-text table next to it."""
    if not report.rec_history or not report.rec_history.get("val_b_score"):
        raise ValueError("incomplete report: empty training history")
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    lines = [f"seed: {report.seed}", f"reduce blocks: {report.n_reduce_blocks}", ""]
    for partition in data_mod.PARTITIONS:
        if partition in report.metrics:
            lines.append(f"[{partition}]")
            lines.append(format_report(report.metrics[partition]))
            lines.append("")
    with open(path.with_suffix(".txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
