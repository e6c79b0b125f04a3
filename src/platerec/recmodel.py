"""Triad classifier: (user, restaurant, image feature) -> like probability.

User and restaurant ids go through embedding tables, the image feature
through a linear FC, all to the same embedding width. The concatenation is
batch-normalized, expanded-reduced through FC layers and one or two reduce
blocks (FC halving the width + dropout 0.5 + ReLU), and finished with a
single sigmoid unit.

Inference runs the network in a factorized form, cached by `nn.Model.fold`.
Up to the first reduce block's ReLU the inference-mode network is affine:
`concat_bn` is a per-channel scale and shift, `expand_fc` and `block0.fc` are
linear, and `block0.dropout` is the identity. Splitting `expand_fc`'s rows by
branch, the ReLU's input is

    feature @ W_img + c + T_user[u] + T_rest[r]

where `W_img` is the image branch folded into one
(image_feature_dim, embed_dim) matrix, `c` is one row, and `T_user` and
`T_rest` hold each branch's scaled and shifted embedding through its rows of
`expand_fc` and through `block0.fc`, for every row of its table. A request
then costs one (rows, image_feature_dim) x (image_feature_dim, embed_dim)
product and two gathers before the rest of the network runs layer by layer.
Per-entity terms cached for serving follow Covington et al., "Deep Neural
Networks for YouTube Recommendations" (RecSys 2016).
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
        if self.image_feature_dim < 1:
            raise ValueError(f"image_feature_dim must be positive, got {self.image_feature_dim}")
        if self.embed_dim < 4 or self.embed_dim % 4:
            raise ValueError(
                f"embed_dim must be a positive multiple of 4, got {self.embed_dim}"
            )
        if self.n_reduce_blocks not in (1, 2):
            raise ValueError(
                f"n_reduce_blocks must be 1 or 2, got {self.n_reduce_blocks}"
            )
        nn.check_fit_config(self)


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
        """The rows `idx`. Rows of a valid batch are valid, so the subset skips
        `__post_init__`'s checks, which would scan its labels again."""
        subset = object.__new__(TriadBatch)
        subset.__dict__.update(users=self.users[idx], restaurants=self.restaurants[idx],
                               features=self.features[idx], labels=self.labels[idx])
        return subset


@dataclass
class RecTrainHistory:
    train_loss: list[float]
    val_b_score: list[float]
    wall_time: list[float]
    best_epoch: int


class RecModel(nn.Model):
    """`layers` is the one list of (checkpoint name, layer) pairs, in forward
    order: the user, restaurant and image branches, then the tail. `rng`
    draws the weights; with None they start at zero, for a model that a
    checkpoint fills."""

    def __init__(self, config: RecConfig, rng, dtype=nn.DTYPE):
        d = config.embed_dim
        self.config = config
        self.dtype = dtype
        layers = [
            ("user_emb", nn.Embedding(config.n_users, d, rng, dtype)),
            ("rest_emb", nn.Embedding(config.n_restaurants, d, rng, dtype)),
            ("image_fc", nn.Dense(config.image_feature_dim, d, rng, dtype)),  # linear
            ("concat_bn", nn.BatchNorm(3 * d, dtype)),
            ("expand_fc", nn.Dense(3 * d, 2 * d, rng, dtype)),  # linear
        ]
        width = 2 * d
        for i in range(config.n_reduce_blocks):
            layers += [(f"block{i}.fc", nn.Dense(width, width // 2, rng, dtype)),
                       (f"block{i}.dropout", nn.Dropout(config.dropout_p)),
                       (f"block{i}.relu", nn.ReLU())]
            width //= 2
        layers += [("half_fc", nn.Dense(width, width // 2, rng, dtype)),
                   ("half_relu", nn.ReLU()),
                   ("out_fc", nn.Dense(width // 2, 1, rng, dtype)),
                   ("out_sigmoid", nn.Sigmoid())]
        super().__init__(layers)
        self.branches = [layer for _, layer in layers[:3]]
        self.tail = nn.Sequential(layer for _, layer in layers[3:])

    def layer_widths(self):
        """The tail's input width, then the output width of each of its Dense layers."""
        fcs = [layer for layer in self.tail.layers if isinstance(layer, nn.Dense)]
        return [fcs[0].in_features] + [fc.out_features for fc in fcs]

    def forward(self, batch: TriadBatch, mode=nn.INFERENCE, rng=None):
        """Probability per triad; concatenation order is (user, restaurant, image).
        Inference takes the factorized path of the module docstring."""
        if len(batch) == 0:
            raise ValueError("empty batch")
        if mode == nn.TRAINING and len(batch) < 2:
            raise ValueError("training mode needs batch size >= 2 for batch norm")
        features = np.asarray(batch.features, dtype=self.dtype)
        if mode == nn.INFERENCE:
            x = self._first_preactivation(batch, features)
            # the tail from block0.dropout on
            return nn.Sequential(self.tail.layers[3:]).forward(x)[:, 0]
        inputs = (batch.users, batch.restaurants, features)
        x = np.concatenate([branch.forward(inp, mode=mode)
                            for branch, inp in zip(self.branches, inputs)], axis=1)
        return self.tail.forward(x, mode=mode, rng=rng)[:, 0]

    def _first_preactivation(self, batch, features):
        """block0.fc's inference output, `feature @ W_img + c + T_user[u] + T_rest[r]`."""
        user_emb, rest_emb, image_fc = self.branches
        # numpy wraps a negative index round, so the ids are checked before any gather
        users = user_emb.check_indices(batch.users)
        restaurants = rest_emb.check_indices(batch.restaurants)
        image_fc.check_input(features)
        w_img, c, t_user, t_rest = self.fold()
        x = features @ w_img
        x += c
        x += t_user[users]
        x += t_rest[restaurants]
        return x

    def _build_fold(self):
        """(W_img, c, T_user, T_rest) of the module docstring, from the current weights."""
        user_emb, rest_emb, image_fc = self.branches
        bn, expand_fc, block_fc = self.tail.layers[:3]
        scale, shift = bn.scale_shift()
        d, w_block = self.config.embed_dim, block_fc.weight.value
        # (scale, shift, expand_fc rows) of each branch
        user, rest, (s, t, w) = zip(scale.reshape(3, d), shift.reshape(3, d),
                                    expand_fc.weight.value.reshape(3, d, 2 * d))
        w_img = np.linalg.multi_dot([image_fc.weight.value * s, w, w_block])
        c = ((image_fc.bias.value * s + t) @ w + expand_fc.bias.value) @ w_block
        c += block_fc.bias.value
        t_user, t_rest = (np.linalg.multi_dot([emb.table.value * s + t, w, w_block])
                          for emb, (s, t, w) in ((user_emb, user), (rest_emb, rest)))
        return w_img, c, t_user, t_rest

    def backward(self, grad_out):
        g = self.tail.backward(grad_out[:, None])
        d = self.config.embed_dim  # each branch's d columns, as views
        grads = [nn.backward_chain([branch], g[:, k * d:(k + 1) * d])
                 for k, branch in enumerate(self.branches)]
        return grads[-1]  # the image feature's gradient


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
    # every candidate's config is built, and so checked, before the first trains
    configs = [replace(config_base, learning_rate=lr, embed_dim=embed, patience=patience)
               for lr, embed in itertools.product(lr_candidates, embed_candidates)]
    rows = []
    for cfg in configs:
        lr, embed = cfg.learning_rate, cfg.embed_dim
        model = build_recommender(cfg, nn.make_rng(cfg.seed, f"grid:{lr}:{embed}"))
        _, history = train_recommender(model, train, val, cfg)
        rows.append({"lr": lr, "embed_dim": embed, "val_b_score": max(history.val_b_score)})
    best_row = sorted(rows, key=lambda r: (-r["val_b_score"], r["embed_dim"], -r["lr"]))[0]
    return rows, (best_row["lr"], best_row["embed_dim"])
