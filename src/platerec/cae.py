"""Convolutional autoencoder used as the image feature extractor.

Encoder: three 2x downsamplings over building blocks (conv 3x3 + batch norm
+ ReLU) with channel widths 64, 32, 16, 3; the 3-channel bottleneck feature
maps, flattened, are the image encoding. Decoder mirrors the encoder with
nearest-neighbor upsampling and ends in a sigmoid so reconstructions stay
in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass
class CaeConfig:
    input_height: int = 32
    input_width: int = 32
    input_channels: int = 3
    loss_kind: str = "bce"
    batch_size: int = 32
    patience: int = 6
    max_epochs: int = 100
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.input_height % 8 or self.input_width % 8:
            raise ValueError(
                f"input dimensions must be divisible by 8 (three 2x poolings), "
                f"got {self.input_height}x{self.input_width}"
            )
        if self.input_channels != 3:
            raise ValueError("only 3-channel inputs are supported")
        if self.loss_kind not in ("bce", "mse"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.batch_size < 2:
            raise ValueError(
                f"batch_size must be >= 2 (training-mode batch norm), got {self.batch_size}"
            )

    @property
    def code_shape(self):
        return (3, self.input_height // 8, self.input_width // 8)

    @property
    def code_length(self):
        c, h, w = self.code_shape
        return c * h * w


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_loss: list[float]
    wall_time: list[float]
    best_epoch: int


def _building_block(cin, cout, rng, dtype):
    return [nn.Conv3x3(cin, cout, rng, dtype), nn.BatchNorm(cout, dtype), nn.ReLU()]


class CaeModel(nn.Model):
    """Encoder and decoder; their layers are named `encoder.<i>` and `decoder.<i>`."""

    def __init__(self, encoder: nn.Sequential, decoder: nn.Sequential, config: CaeConfig):
        self.encoder = encoder
        self.decoder = decoder
        self.config = config
        super().__init__([(f"{part}.{i}", layer)
                          for part, seq in (("encoder", encoder), ("decoder", decoder))
                          for i, layer in enumerate(seq.layers)])

    def forward(self, x, mode=nn.INFERENCE):
        return self.decoder.forward(self.encoder.forward(x, mode=mode), mode=mode)

    def backward(self, grad_out):
        return self.encoder.backward(self.decoder.backward(grad_out))


def build_cae(config: CaeConfig, rng=None, dtype=nn.DTYPE) -> CaeModel:
    if rng is None:
        rng = nn.make_rng(config.seed, "cae-init")
    enc = []
    enc += _building_block(3, 64, rng, dtype)
    enc.append(nn.MaxPool2x2())
    enc += _building_block(64, 32, rng, dtype)
    enc.append(nn.MaxPool2x2())
    enc += _building_block(32, 16, rng, dtype)
    enc += _building_block(16, 3, rng, dtype)
    enc.append(nn.MaxPool2x2())

    dec = []
    dec += _building_block(3, 16, rng, dtype)
    dec.append(nn.Upsample2x())
    dec += _building_block(16, 32, rng, dtype)
    dec.append(nn.Upsample2x())
    dec += _building_block(32, 64, rng, dtype)
    dec.append(nn.Upsample2x())
    dec.append(nn.Conv3x3(64, 3, rng, dtype))
    dec.append(nn.BatchNorm(3, dtype))
    dec.append(nn.Sigmoid())
    return CaeModel(nn.Sequential(enc), nn.Sequential(dec), config)


def _as_batch(images, config):
    """HWC image stack -> NCHW float array, validating dimensions."""
    arr = np.asarray(images, dtype=np.float32)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[1:] != (config.input_height, config.input_width, 3):
        raise ValueError(
            f"expected images of shape ({config.input_height}, {config.input_width}, 3), "
            f"got {arr.shape}"
        )
    return np.ascontiguousarray(arr.transpose(0, 3, 1, 2))


def train_cae(model: CaeModel, train_images, val_images, config: CaeConfig):
    """Early-stopped reconstruction training with `nn.fit`; restores the best-epoch weights.

    Monitors validation reconstruction loss (inference mode); stops after
    `patience` epochs without improvement and at most max_epochs. A
    non-finite train or validation loss raises ValueError naming the epoch.
    """
    x_train = _as_batch(train_images, config)
    x_val = _as_batch(val_images, config) if len(val_images) else x_train

    def batch_loss(idx):
        batch = x_train[idx]
        return nn.loss_eval(model.forward(batch, mode=nn.TRAINING), batch, config.loss_kind)

    train_loss, val_score, wall_time, best_epoch = nn.fit(
        model, x_train.shape[0], batch_loss, lambda: -evaluate_loss(model, x_val, config),
        nn.make_rng(config.seed, "cae-train"), config)
    return model, TrainHistory(train_loss, [-s for s in val_score], wall_time, best_epoch)


def evaluate_loss(model: CaeModel, x_nchw, config: CaeConfig, batch_size=64):
    losses, weights = [], []
    for start in range(0, x_nchw.shape[0], batch_size):
        batch = x_nchw[start:start + batch_size]
        out = model.forward(batch, mode=nn.INFERENCE)
        loss, _ = nn.loss_eval(out, batch, config.loss_kind)
        losses.append(loss)
        weights.append(batch.shape[0])
    return float(np.average(losses, weights=weights))


def encode_images(model: CaeModel, images, batch_size=64):
    """Flattened bottleneck codes (inference mode), one row per image."""
    x = _as_batch(images, model.config)
    codes = []
    for start in range(0, x.shape[0], batch_size):
        code = model.encoder.forward(x[start:start + batch_size], mode=nn.INFERENCE)
        codes.append(code.reshape(code.shape[0], -1))
    return np.concatenate(codes, axis=0)


def encode_image(model: CaeModel, image):
    return encode_images(model, [image])[0]


def reconstruct_image(model: CaeModel, image):
    x = _as_batch(image, model.config)
    out = model.forward(x, mode=nn.INFERENCE)
    return np.ascontiguousarray(out[0].transpose(1, 2, 0))
