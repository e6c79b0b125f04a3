"""Convolutional autoencoder used as the image feature extractor.

Encoder: three 2x downsamplings over building blocks (conv 3x3 + batch norm
+ ReLU) with channel widths 64, 32, 16, 3; the 3-channel bottleneck feature
maps, flattened, are the image encoding. A block that downsamples pools
before its ReLU, on a quarter of the values: max commutes with ReLU, and
the gradients differ only in windows whose maximum is at most 0, where both
orders give 0. Decoder mirrors the encoder with nearest-neighbor upsampling
and ends in a sigmoid so reconstructions stay in (0, 1).

Each decoder conv after the first upsamples its own input at the low
resolution (`nn.Conv3x3.upsample`), so the decoder holds no upsampling
layer. A 2x nearest-neighbour upsampling followed by a 3x3 conv (a
resize-convolution, Odena, Dumoulin & Olah, Distill 2016) is exactly a
sub-pixel convolution (Shi et al., arXiv:1609.05158): output row 2i + p
reads low-resolution rows i - 1 + p and i + p only. Phase p = 0 reads row
offset -1 with kernel row 0 and offset 0 with rows 1 + 2; phase 1 reads
offset 0 with rows 0 + 1 and offset +1 with row 2; columns follow the same
rule. So each of the four output phases (pi, pj) is a 2x2 conv of the padded
low-resolution input whose taps are sums of the 3x3 taps
(`nn.conv_kernels` at scale 2): 16 (phase, tap) GEMMs, 4/9 of the
multiply-adds, interleaved into the output, and neither the upsampled tensor
nor its padded copy is built. A plain conv is the same code at scale 1: one
phase of nine taps (`nn.Conv3x3`). Backward computes each phase-tap's weight
gradient against its phase of the output gradient, gives each 3x3 tap the
sum of the four it feeds, and computes the input gradient at the low
resolution. Training builds the kernels every step; inference takes them
from the fold.

Training runs the encoder and decoder layer by layer. Inference folds every
conv -> batch norm pair (`nn.Model.fold`). A block that pools takes the max
on the conv's uncropped (N, O, H, W+2) grid, as max commutes with the
per-channel shift, then adds the shift and applies the ReLU in place on the
pooled array; every other block adds the shift while interleaving its conv's
phases, which at scale 1 crops the one grid.

Inference runs over consecutive blocks of at most `images_per_block` images
and writes each block's result into one output (loop blocking, Lam, Rothberg
& Wolf, ASPLOS 1991), so its temporaries stay near INFER_BLOCK_BYTES however
large the batch. Every folded step computes each image from that image
alone (the conv GEMMs are per image, the shift, pool and ReLU elementwise),
so the bytes do not depend on the block. Training is not blocked: its batch
norm takes statistics over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

# Bytes of the widest folded grid in one block of `CaeModel`'s inference: the
# first conv's 64 x H x (W+2) grid, sized so that a block's temporaries stay
# within a few MiB, near the last-level cache, instead of growing with the
# caller's batch (830 MB for 64 images at 224x224).
INFER_BLOCK_BYTES = 4 * 2 ** 20


def images_per_block(height, width, itemsize):
    """Images per block of `CaeModel`'s inference at `height` x `width`: as many
    first-conv grids of `itemsize`-byte values as fit INFER_BLOCK_BYTES, at least one."""
    return max(1, INFER_BLOCK_BYTES // (64 * height * (width + 2) * itemsize))


def _in_blocks(fn, x, block):
    """`fn` of x, run over consecutive blocks of at most `block` images and
    written into one output; a batch of at most one block (an empty one too)
    is one call."""
    n = len(x)
    if n <= block:
        return fn(x)
    out = None
    for start in range(0, n, block):
        part = fn(x[start:start + block])
        if out is None:
            out = np.empty((n,) + part.shape[1:], part.dtype)
        out[start:start + len(part)] = part
    return out


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
        nn.check_fit_config(self)

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


def _building_block(cin, cout, rng, dtype, pool=False, upsample=False, act=nn.ReLU):
    conv = nn.Conv3x3(cin, cout, rng, dtype)
    conv.upsample = upsample
    return [conv, nn.BatchNorm(cout, dtype)] + ([nn.MaxPool2x2()] if pool else []) + [act()]


class CaeModel(nn.Model):
    """Encoder and decoder, each an `nn.Sequential` that training runs directly.

    Layer i of the encoder is named `encoder.<i>`. Layer k of decoder block b
    (conv, batch norm, activation) is named `decoder.<4b + k>`, so the
    decoder's names are 0-2, 4-6, 8-10 and 12-14: checkpoints took the
    names when a separate upsampling layer sat at 3, 7 and 11, and the
    positions stay unused so those checkpoints keep loading. Inference runs
    through the fold instead (`_infer`).

    `rng` draws the weights; with None they start at zero, for a model that
    a checkpoint fills.
    """

    def __init__(self, config: CaeConfig, rng, dtype=nn.DTYPE):
        enc, dec = [], []
        for cin, cout, pool in ((3, 64, True), (64, 32, True), (32, 16, False), (16, 3, True)):
            enc += _building_block(cin, cout, rng, dtype, pool)
        enc[0].input_grad = False  # its input is the image, which takes no gradient
        for cin, cout, upsample, act in ((3, 16, False, nn.ReLU), (16, 32, True, nn.ReLU),
                                         (32, 64, True, nn.ReLU), (64, 3, True, nn.Sigmoid)):
            dec += _building_block(cin, cout, rng, dtype, upsample=upsample, act=act)
        self.encoder = nn.Sequential(enc)
        self.decoder = nn.Sequential(dec)
        self.config = config
        super().__init__([(f"encoder.{i}", layer) for i, layer in enumerate(enc)]
                         + [(f"decoder.{4 * (i // 3) + i % 3}", layer)
                            for i, layer in enumerate(dec)])

    def forward(self, x, mode=nn.INFERENCE):
        if mode == nn.INFERENCE:
            return self._blocked(
                x, lambda b: self._infer(self.decoder, self._infer(self.encoder, b)))
        # any other mode is checked by the layers
        return self.decoder.forward(self.encoder.forward(x, mode), mode)

    def encode(self, x):
        """The inference bottleneck of an NCHW batch."""
        return self._blocked(x, lambda b: self._infer(self.encoder, b))

    def _blocked(self, x, infer):
        """`infer` of the NCHW batch x in blocks of `images_per_block` images
        (any other shape in one call, for the first conv to reject)."""
        if x.ndim != 4:
            return infer(x)
        itemsize = np.result_type(x.dtype, self.arena.values.dtype).itemsize
        return _in_blocks(infer, x, images_per_block(x.shape[2], x.shape[3], itemsize))

    def _infer(self, seq, x):
        """`seq`'s inference forward through the fold: each conv -> batch norm
        (-> pool) is one step."""
        fold = self.fold()
        layers = seq.layers
        for i, layer in enumerate(layers):
            if isinstance(layer, nn.Conv3x3):
                kernels, shift = fold[layer]
                if isinstance(layers[i + 2], nn.MaxPool2x2):  # after the batch norm
                    grid, = layer.grids(x, kernels)
                    x = nn.pool_grid(grid, x.shape[3])
                    x += shift
                else:
                    x = layer.apply(x, kernels, shift)
            elif isinstance(layer, nn.ReLU):
                np.maximum(x, 0, out=x)  # x is the array the conv step made
            elif not isinstance(layer, (nn.BatchNorm, nn.MaxPool2x2)):  # done by the conv step
                x = layer.forward(x)
        return x

    def _build_fold(self):
        """conv -> (the `conv_kernels` of its weight scaled by s, the shift t)
        of each conv -> batch norm pair."""
        layers = [layer for _, layer in self.layers]
        fold = {}
        for conv, bn in zip(layers, layers[1:]):
            if isinstance(conv, nn.Conv3x3):
                scale, shift = bn.scale_shift()
                weight = conv.weight.value * scale[:, None, None, None]
                fold[conv] = (nn.conv_kernels(weight, conv.scale), shift[:, None, None])
        return fold

    def backward(self, grad_out):
        return self.encoder.backward(self.decoder.backward(grad_out))


def build_cae(config: CaeConfig, rng=None, dtype=nn.DTYPE) -> CaeModel:
    if rng is None:
        rng = nn.make_rng(config.seed, "cae-init")
    return CaeModel(config, rng, dtype)


def _as_batch(images, config):
    """HWC image stack -> NCHW float array, validating dimensions; an empty
    stack is an empty batch."""
    arr = np.asarray(images, dtype=np.float32)
    if arr.size == 0 and arr.ndim == 1:
        arr = arr.reshape(0, config.input_height, config.input_width, 3)
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
    if not len(x_nchw):
        raise ValueError("cannot evaluate the reconstruction loss of an empty batch")
    batches = [x_nchw[start:start + batch_size] for start in range(0, len(x_nchw), batch_size)]
    losses = [nn.loss_eval(model.forward(batch), batch, config.loss_kind)[0] for batch in batches]
    return float(np.average(losses, weights=[len(batch) for batch in batches]))


def encode_images(model: CaeModel, images, batch_size=64):
    """Flattened bottleneck codes (inference mode), one row per image, encoded
    `batch_size` images at a time; no images give a (0, code_length) array.

    `model.encode` splits each batch further into byte-budgeted blocks (see
    INFER_BLOCK_BYTES); as each image's code is computed from that image
    alone, neither `batch_size` nor the block changes a byte of it.
    """
    code_length = model.config.code_length
    return _in_blocks(lambda b: model.encode(b).reshape(len(b), code_length),
                      _as_batch(images, model.config), batch_size)


def encode_image(model: CaeModel, image):
    return encode_images(model, [image])[0]


def reconstruct_image(model: CaeModel, image):
    x = _as_batch(image, model.config)
    out = model.forward(x, mode=nn.INFERENCE)
    return np.ascontiguousarray(out[0].transpose(1, 2, 0))
