"""Triad classifier: (user, restaurant, image feature) -> like probability.

User and restaurant ids go through embedding tables, the image feature
through a linear FC, all to the same embedding width. The concatenation is
batch-normalized, expanded-reduced through FC layers and one or two reduce
blocks (FC halving the width + dropout 0.5 + ReLU), and finished with a
single sigmoid unit.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .metrics import b_score, confusion_counts, compute_metrics


@dataclass
class RecConfig:
    n_users: int
    n_restaurants: int
    image_feature_dim: int
    embed_dim: int = 512
    n_reduce_blocks: int = 2
    dropout_p: float = 0.5
    learning_rate: float = 0.001
    batch_size: int = 32
    patience: int = 12
    max_epochs: int = 100
    decision_threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.n_restaurants < 1:
            raise ValueError("need at least one user and one restaurant")
        if self.embed_dim < 4 or self.embed_dim % 4:
            raise ValueError(
                f"embed_dim must be a positive multiple of 4, got {self.embed_dim}"
            )
        if self.n_reduce_blocks not in (1, 2):
            raise ValueError(
                f"n_reduce_blocks must be 1 or 2, got {self.n_reduce_blocks}"
            )
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 (training-mode batch norm), got {self.batch_size}"
            )


@dataclass
class TriadBatch:
    users: np.ndarray
    restaurants: np.ndarray
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        n = len(self.users)
        if not (len(self.restaurants) == n and len(self.features) == n == len(self.labels)):
            raise ValueError("triad batch fields must have equal length")
        if n and not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

    def __len__(self):
        return len(self.users)

    def take(self, idx):
        return TriadBatch(self.users[idx], self.restaurants[idx],
                          self.features[idx], self.labels[idx])


@dataclass
class RecTrainHistory:
    train_loss: list[float]
    val_b_score: list[float]
    wall_time: list[float]
    best_epoch: int


class RecModel:

    def __init__(self, config: RecConfig, rng, dtype=nn.DTYPE):
        d = config.embed_dim
        self.config = config
        self.dtype = dtype
        self.user_emb = nn.Embedding(config.n_users, d, rng, dtype)
        self.rest_emb = nn.Embedding(config.n_restaurants, d, rng, dtype)
        self.image_fc = nn.Dense(config.image_feature_dim, d, rng, dtype)  # linear
        self.concat_bn = nn.BatchNorm(3 * d, dtype)
        self.expand_fc = nn.Dense(3 * d, 2 * d, rng, dtype)  # linear
        width = 2 * d
        self.blocks = []
        for _ in range(config.n_reduce_blocks):
            self.blocks.append((
                nn.Dense(width, width // 2, rng, dtype),
                nn.Dropout(config.dropout_p),
                nn.ReLU(),
            ))
            width //= 2
        self.half_fc = nn.Dense(width, width // 2, rng, dtype)
        self.half_relu = nn.ReLU()
        width //= 2
        self.out_fc = nn.Dense(width, 1, rng, dtype)
        self.out_sigmoid = nn.Sigmoid()

    def layer_widths(self):
        widths = [3 * self.config.embed_dim, 2 * self.config.embed_dim]
        w = widths[-1]
        for _ in range(self.config.n_reduce_blocks + 1):
            w //= 2
            widths.append(w)
        widths.append(1)
        return widths

    def params(self):
        out = (self.user_emb.params() + self.rest_emb.params()
               + self.image_fc.params() + self.concat_bn.params()
               + self.expand_fc.params())
        for fc, _, _ in self.blocks:
            out += fc.params()
        out += self.half_fc.params() + self.out_fc.params()
        return out

    def state_dict(self):
        named = [("user_emb", self.user_emb), ("rest_emb", self.rest_emb),
                 ("image_fc", self.image_fc), ("concat_bn", self.concat_bn),
                 ("expand_fc", self.expand_fc)]
        for i, (fc, _, _) in enumerate(self.blocks):
            named.append((f"block{i}.fc", fc))
        named += [("half_fc", self.half_fc), ("out_fc", self.out_fc)]
        out = {}
        for prefix, layer in named:
            for name, arr in layer.tensors().items():
                out[f"{prefix}.{name}"] = arr
        return out

    def forward(self, batch: TriadBatch, mode=nn.INFERENCE, rng=None):
        """Probability per triad; concatenation order is (user, restaurant, image)."""
        if len(batch) == 0:
            raise ValueError("empty batch")
        if mode == nn.TRAINING and len(batch) < 2:
            raise ValueError("training mode needs batch size >= 2 for batch norm")
        eu = self.user_emb.forward(batch.users, mode=mode)
        er = self.rest_emb.forward(batch.restaurants, mode=mode)
        ei = self.image_fc.forward(np.asarray(batch.features, dtype=self.dtype), mode=mode)
        x = np.concatenate([eu, er, ei], axis=1)
        x = self.concat_bn.forward(x, mode=mode)
        x = self.expand_fc.forward(x, mode=mode)
        for fc, drop, relu in self.blocks:
            x = fc.forward(x, mode=mode)
            x = drop.forward(x, mode=mode, rng=rng)
            x = relu.forward(x, mode=mode)
        x = self.half_relu.forward(self.half_fc.forward(x, mode=mode), mode=mode)
        x = self.out_sigmoid.forward(self.out_fc.forward(x, mode=mode), mode=mode)
        return x[:, 0]

    def backward(self, grad_out):
        g = self.out_sigmoid.backward(grad_out[:, None])
        g = self.out_fc.backward(g)
        g = self.half_fc.backward(self.half_relu.backward(g))
        for fc, drop, relu in reversed(self.blocks):
            g = fc.backward(drop.backward(relu.backward(g)))
        g = self.expand_fc.backward(g)
        g = self.concat_bn.backward(g)
        d = self.config.embed_dim
        self.user_emb.backward(g[:, :d])
        self.rest_emb.backward(g[:, d:2 * d])
        return self.image_fc.backward(g[:, 2 * d:])


def build_recommender(config: RecConfig, rng=None, dtype=nn.DTYPE) -> RecModel:
    if rng is None:
        rng = nn.make_rng(config.seed, "rec-init")
    return RecModel(config, rng, dtype)


def _val_b_score(model, val: TriadBatch, threshold):
    probs = model.forward(val, mode=nn.INFERENCE)
    report = compute_metrics(confusion_counts(probs, val.labels, threshold), threshold)
    sens, spec = report.sensitivity, report.specificity
    if sens is None or spec is None:
        warnings.warn("validation set contains a single class; "
                      "treating the vacuous rate as 1.0 for monitoring")
        return b_score(1.0 if sens is None else sens, 1.0 if spec is None else spec)
    return report.b_score


def train_recommender(model: RecModel, train: TriadBatch, val: TriadBatch,
                      config: RecConfig):
    """BCE training with `nn.fit`, monitoring the validation b_score each epoch.

    Early-stops after `patience` epochs without b_score improvement and
    restores the best-scoring weights. A non-finite train loss raises
    ValueError naming the epoch.
    """
    drop_rng = nn.make_rng(config.seed, "rec-dropout")

    def batch_loss(idx):
        batch = train.take(idx)
        probs = model.forward(batch, mode=nn.TRAINING, rng=drop_rng)
        return nn.loss_eval(probs, batch.labels.astype(np.float32), "bce")

    history = nn.fit(
        model, len(train), batch_loss,
        lambda: _val_b_score(model, val, config.decision_threshold),
        nn.make_rng(config.seed, "rec-train"), config)
    return model, RecTrainHistory(*history)


def predict(model: RecModel, user, restaurant, image_feature, threshold=None):
    """Probability and thresholded label for a single triad (inference mode)."""
    if threshold is None:
        threshold = model.config.decision_threshold
    batch = TriadBatch(
        users=np.array([user]), restaurants=np.array([restaurant]),
        features=np.asarray(image_feature, dtype=np.float32)[None, :],
        labels=np.array([0]),
    )
    prob = float(model.forward(batch, mode=nn.INFERENCE)[0])
    return prob, int(prob >= threshold)


def grid_search(train: TriadBatch, val: TriadBatch, lr_candidates,
                embed_candidates, config_base: RecConfig, patience=6):
    """One training run per (lr, embed_dim) pair; best by validation b_score.

    Ties break to the smaller embedding then the larger learning rate.
    Returns (rows, best) where each row is a dict with lr, embed_dim and the
    best validation b_score of that run.
    """
    if not lr_candidates or not embed_candidates:
        raise ValueError("candidate lists must be nonempty")
    rows = []
    for lr, embed in itertools.product(lr_candidates, embed_candidates):
        cfg = replace(config_base, learning_rate=lr, embed_dim=embed, patience=patience)
        model = build_recommender(cfg, nn.make_rng(cfg.seed, f"grid:{lr}:{embed}"))
        _, history = train_recommender(model, train, val, cfg)
        best = max(history.val_b_score) if history.val_b_score else 0.0
        rows.append({"lr": lr, "embed_dim": embed, "val_b_score": best})
    best_row = sorted(rows, key=lambda r: (-r["val_b_score"], r["embed_dim"], -r["lr"]))[0]
    return rows, (best_row["lr"], best_row["embed_dim"])
