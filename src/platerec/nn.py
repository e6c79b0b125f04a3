"""Minimal deterministic neural-network engine.

Layers carry explicit forward/backward passes and are sufficient to build
the convolutional autoencoder and the triad classifier: 3x3 same-padding
convolution, 2x2 max pooling, 2x nearest-neighbor upsampling, batch
normalization, dense, embedding lookup, ReLU/sigmoid, inverted dropout,
He-uniform initialization, BCE/MSE losses, Adam, and `fit`, the one
early-stopped mini-batch training loop both networks use.

Everything is a plain numpy array in float32; a float64 mode exists only
for finite-difference gradient checking.

The convolution never builds an im2col matrix. Its input is zero-padded
once into a padded-flat buffer of shape (N, C, (H+2)*(W+2) + 2), in which
tap (di, dj) of every 3x3 window is the contiguous slice at offset
di*(W+2) + dj, and the output lives on an H x (W+2) grid whose two slack
columns are cropped at the end ("kn2row", Vasudevan, Anderson & Gregg,
arXiv:1704.04428). The channel counts alone pick how the nine taps meet
the kernel: when 9 * C_in <= C_out the slices are stacked into one GEMM,
otherwise nine per-tap GEMMs accumulate. Max pooling takes the maximum of
the four strided views of its input.

Each `Model` packs its persistent tensors, parameters and batch-norm running
statistics alike, into one `Arena` (the flat parameter and gradient buffers
of ZeRO, Rajbhandari et al., arXiv:1910.02054): every tensor is a view into
one contiguous buffer, laid out in sorted-name order, which is the order of
the checkpoint payload, and every gradient a view into a second buffer of
the same layout. The gradient buffer and Adam's two moment buffers are
allocated on first training use, so a model that is only run forward, such
as one loaded from a checkpoint to rank, holds its weights and running
statistics and nothing else. With the arena, `zero_grads` is one fill,
`adam_step` is one chunked pass over the arena, the global gradient norm is
one dot product, and a snapshot, a restore, a checkpoint write and a
checkpoint read are one copy each.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import time

import numpy as np

from .metrics import EarlyStopState

DTYPE = np.float32

TRAINING = "training"
INFERENCE = "inference"
_MODES = (TRAINING, INFERENCE)


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

def derive_seed(seed: int, label: str) -> int:
    """Derive a sub-stream seed from a parent seed and a stream label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int, label: str | None = None) -> np.random.Generator:
    """Seeded generator; with a label, a derived independent sub-stream."""
    if label is not None:
        seed = derive_seed(seed, label)
    return np.random.Generator(np.random.PCG64(seed))


def he_uniform_init(shape, fan_in: int, rng: np.random.Generator, dtype=DTYPE):
    """Uniform init on [-L, L] with L = sqrt(6 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class Parameter:
    """A persistent tensor. Once packed into an `Arena`, `value` and `grad` are
    views into the arena's buffers; `grad` is allocated on first use."""

    def __init__(self, value):
        self.value = np.asarray(value)
        self.arena = None
        self._span = None
        self._grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        if self._grad is None:
            if self.arena is None:
                self._grad = np.zeros_like(self.value)
            else:
                self._grad = self.arena.require_grad()[self._span].reshape(self.value.shape)
        return self._grad

    @grad.setter
    def grad(self, value):
        # `p.grad += g` stores back the array it updated in place; any other
        # array would cut the gradient loose from the arena
        if value is not self._grad:
            raise AttributeError("write gradients in place, as p.grad[...] = g")

    def zero_grad(self):
        self.grad[...] = 0


# Values per chunk of `adam_step`. A float32 chunk's six operands (gradient,
# moments, values and two scratch chunks) take 1.5 MiB, small enough to stay
# in cache across the update's 14 passes instead of streaming from memory.
ADAM_CHUNK = 64 * 1024


class Arena:
    """One model's tensors laid end to end in one contiguous buffer.

    `values` holds every parameter, in the order given (a `Model` gives its
    sorted-name order), in their one dtype, and each `Parameter.value`
    becomes a view into it. `grad`, `adam_m` and `adam_v` have the same
    layout and stay None until training first needs them (`zero_grads`, a
    backward pass or `adam_step`), so a model that only runs forward holds
    its weights and nothing else. Packing happens once, when the model is
    built: it copies the values in and drops any gradient a parameter held
    on its own.

    Each buffer is an anonymous memory mapping of its own rather than a
    malloc heap block: it is large and lives as long as its model, and a
    mapping goes back to the system when the model is freed instead of
    leaving a hole in the heap. Loading a classifier while the previous one
    is alive, as the `rank` benchmark workload does, peaked at 132-140 MB RSS
    with heap buffers and at 124 MB with mappings (2-core Xeon, one BLAS
    thread).
    """

    def __init__(self, params):
        params = list(params)
        dtypes = {p.value.dtype for p in params}
        if len(dtypes) != 1:
            raise ValueError(f"an arena holds one dtype, got {sorted(map(str, dtypes))}")
        self.values = _mapped_zeros(sum(p.value.size for p in params), dtypes.pop())
        start = 0
        for p in params:
            span = slice(start, start + p.value.size)
            self.values[span] = p.value.reshape(-1)
            p.value, p.arena, p._span, p._grad = (
                self.values[span].reshape(p.value.shape), self, span, None)
            start = span.stop
        self.grad = self.adam_m = self.adam_v = None
        self.step_count = 0

    def require_grad(self):
        """The gradient buffer, allocated zeroed on first use."""
        if self.grad is None:
            self.grad = _mapped_zeros(self.values.size, self.values.dtype)
        return self.grad

    def grad_norm(self):
        """The global L2 norm of the gradient, one dot product over the arena."""
        g = self.require_grad()
        return math.sqrt(float(np.dot(g, g)))


def _mapped_zeros(size, dtype):
    """A flat zero array in a private anonymous memory mapping of its own."""
    dtype = np.dtype(dtype)
    mapping = mmap.mmap(-1, max(1, size * dtype.itemsize),
                        flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(mapping, dtype, count=size)


def zero_grads(arena):
    arena.require_grad().fill(0)


def adam_step(arena, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of an arena with bias correction, in place. Gradients are left untouched.

    Updates `adam_m`, `adam_v` and `values` with `out=` ufuncs:

        m = beta1*m + (1-beta1)*g
        v = beta2*v + (1-beta2)*(g*g)
        value -= (lr*(m/(1-beta1**t))) / (sqrt(v/(1-beta2**t)) + eps)

    The arena is walked in chunks of ADAM_CHUNK values, all 14 operations on
    one chunk before the next, in two scratch chunks allocated per call. The
    moments are allocated on the first call. The operations, their order and
    their operands are those of the textbook allocating form, and each is
    elementwise, so the result is bit-identical to that form applied to every
    parameter with the arena's one step count; the bias corrections are
    deliberately not folded into the step size, which would move the last bits.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    g = arena.require_grad()
    if arena.adam_m is None:
        arena.adam_m = _mapped_zeros(g.size, g.dtype)
        arena.adam_v = _mapped_zeros(g.size, g.dtype)
    arena.step_count += 1
    t = arena.step_count
    size = min(ADAM_CHUNK, g.size)
    scratch_a, scratch_b = np.empty(size, g.dtype), np.empty(size, g.dtype)
    for start in range(0, g.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        gc, m, v, value = g[chunk], arena.adam_m[chunk], arena.adam_v[chunk], arena.values[chunk]
        a, b = scratch_a[:gc.size], scratch_b[:gc.size]
        np.multiply(m, beta1, out=m)
        np.multiply(gc, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(gc, gc, out=a)
        np.multiply(a, 1.0 - beta2, out=a)
        np.add(v, a, out=v)
        np.divide(v, 1.0 - beta2 ** t, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, 1.0 - beta1 ** t, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(value, b, out=value)


def fit(model, n_rows, batch_loss, validate, rng, config):
    """Mini-batch Adam training, early-stopped on a validation score.

    Each epoch permutes the `n_rows` training rows with `rng`. For each batch
    of their indices, `batch_loss(idx)` runs the training-mode forward pass
    and returns (loss, gradient wrt the model output); a trailing one-row
    batch is skipped, as training-mode batch norm needs two rows. `validate()`
    scores the epoch, higher is better. `config` supplies `learning_rate`,
    `batch_size`, `patience` and `max_epochs`. The best-scoring weights are
    restored at the end and the layers' training caches released; a
    non-finite train loss or validation score raises ValueError naming the
    epoch.

    Returns (train_loss, val_score, wall_time, best_epoch), lists per epoch.
    """
    if n_rows < 2:
        raise ValueError(f"training needs at least 2 rows, got {n_rows}")
    arena = model.arena
    stopper = EarlyStopState(patience=config.patience)
    train_loss, val_score, wall_time = [], [], []
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n_rows)
        losses = []
        for start in range(0, n_rows, config.batch_size):
            idx = order[start:start + config.batch_size]
            if len(idx) < 2:
                continue
            loss, grad = batch_loss(idx)
            zero_grads(arena)
            model.backward(grad)
            adam_step(arena, config.learning_rate)
            losses.append(loss)
        loss = float(np.mean(losses))
        check_finite(loss, "train loss", epoch)
        score = validate()
        check_finite(score, "validation loss or score", epoch)
        train_loss.append(loss)
        val_score.append(score)
        wall_time.append(time.perf_counter() - t0)
        if not stopper.update(score, epoch, lambda: snapshot_state(model)):
            break
    if stopper.best_snapshot is not None:
        load_state(model, stopper.best_snapshot)
    for _, layer in model.layers:
        layer._cache = None  # the last batch's activations; a training forward refills them
    return train_loss, val_score, wall_time, stopper.best_epoch


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _check_mode(mode):
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")


class Layer:
    """Base class: forward caches what backward needs (training mode only)."""

    _cache = None

    def tensors(self):
        """Named persistent tensors as Parameters: trainable ones plus running state."""
        return {}

    def params(self):
        """The trainable Parameters."""
        return list(self.tensors().values())

    def forward(self, x, mode=INFERENCE, rng=None):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError


def _pad_flat(x):
    """Zero-pad NCHW to (N, C, (H+2)*(W+2) + 2), the padded image rows laid end to end.

    Tap (di, dj) of a 3x3 window is then the contiguous slice starting at
    di*(W+2) + dj; the two trailing zeros keep the last tap's slice in bounds.
    """
    n, c, h, w = x.shape
    size = (h + 2) * (w + 2)
    buf = np.zeros((n, c, size + 2), dtype=x.dtype)
    grid = np.reshape(buf[:, :, :size], (n, c, h + 2, w + 2), copy=False)
    grid[:, :, 1:h + 1, 1:w + 1] = x
    return buf


def _tap_slices(buf, h, w):
    """The nine (N, C, H*(W+2)) tap views of a padded-flat buffer, row-major tap order."""
    m = h * (w + 2)
    return [buf[:, :, di * (w + 2) + dj:di * (w + 2) + dj + m]
            for di in range(3) for dj in range(3)]


def _conv_padded(buf, weight, h, w):
    """Same-padding 3x3 cross-correlation of a padded-flat buffer -> contiguous (N, O, H, W).

    Output pixels live on an H x (W+2) grid whose last two columns are slack
    and cropped. With few input channels (9*C <= O) the nine tap slices are
    stacked into one (N, 9C, H*(W+2)) operand for a single GEMM; otherwise the
    nine per-tap GEMMs accumulate into one output without any gather copy.
    """
    o, c = weight.shape[:2]
    taps = _tap_slices(buf, h, w)
    if 9 * c <= o:
        wmat = weight.transpose(0, 2, 3, 1).reshape(o, 9 * c)
        out = np.matmul(wmat, np.concatenate(taps, axis=1))
    else:
        wtaps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(9, o, c)
        out = np.matmul(wtaps[0], taps[0])
        tmp = np.empty_like(out)
        for wt, tap in zip(wtaps[1:], taps[1:]):
            out += np.matmul(wt, tap, out=tmp)
    n = buf.shape[0]
    return np.ascontiguousarray(out.reshape(n, o, h, w + 2)[:, :, :, :w])


class Conv3x3(Layer):
    """3x3 convolution (cross-correlation), stride 1, zero 'same' padding, no bias.

    The input is padded once into a padded-flat buffer (see `_pad_flat`) in
    which each of the nine taps is a contiguous slice, so forward is a sum of
    per-tap GEMMs on strided views and no im2col matrix is built. The weight
    gradient reuses the same slices against grad_out on the same H x (W+2)
    grid, whose zero slack columns add nothing. The input gradient is the
    forward routine applied to grad_out with the kernel flipped in space and
    its input and output channels swapped. The channel counts alone decide
    whether the nine taps are stacked into one GEMM or accumulated: forward
    stacks them when 9 * in_channels <= out_channels, the input gradient (a
    conv from out_channels to in_channels) when 9 * out_channels <= in_channels.
    """

    def __init__(self, in_channels, out_channels, rng, dtype=DTYPE):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            he_uniform_init((out_channels, in_channels, 3, 3), in_channels * 9, rng, dtype)
        )

    def tensors(self):
        return {"weight": self.weight}

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input of shape (N,{self.in_channels},H,W), got {x.shape}"
            )
        _, _, h, w = x.shape
        buf = _pad_flat(x)
        if mode == TRAINING:
            self._cache = (buf, h, w)
        return _conv_padded(buf, self.weight.value, h, w)

    def backward(self, grad_out):
        buf, h, w = self._cache
        gbuf = _pad_flat(grad_out)
        # the centre tap of the padded grad_out is grad_out on the H x (W+2)
        # grid, with zeros in the two slack columns
        g = _tap_slices(gbuf, h, w)[4]
        for t, tap in enumerate(_tap_slices(buf, h, w)):
            grad_tap = np.matmul(g, tap.transpose(0, 2, 1)).sum(axis=0)
            self.weight.grad[:, :, t // 3, t % 3] += grad_tap
        flipped = self.weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv_padded(gbuf, flipped, h, w)


class MaxPool2x2(Layer):
    """2x2 max pooling; backward routes to the first argmax in row-major window order."""

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ValueError(f"spatial dims must be even, got {h}x{w}")
        # the four window positions in row-major order: a b / c d
        a, b, c, d = (x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))
        top = np.maximum(a, b)
        bottom = np.maximum(c, d)
        out = np.maximum(top, bottom)
        if mode == TRAINING:
            # int8 routing index; strict comparisons keep the first maximum on ties
            idx = (b > a).view(np.int8)
            np.copyto(idx, (d > c).view(np.int8) + np.int8(2), where=bottom > top)
            self._cache = (idx, x.shape)
        return out

    def backward(self, grad_out):
        idx, (n, c, h, w) = self._cache
        grad_in = np.empty((n, c, h // 2, 2, w // 2, 2), dtype=grad_out.dtype)
        for k in range(4):
            np.multiply(grad_out, idx == k, out=grad_in[:, :, :, k // 2, :, k % 2])
        return grad_in.reshape(n, c, h, w)


class Upsample2x(Layer):
    """Nearest-neighbor 2x upsampling; backward sums each 2x2 block.

    Backward adds the four strided views of grad_out, one per block position
    a b / c d, in the order numpy reduces the 6-D (N, C, H/2, 2, W/2, 2) view
    over its two size-2 axes: (a+b) + (c+d), or ((a+b)+c)+d when the half
    width is 1 and the two axes merge into one run of four, each added to
    numpy's starting +0.0. The result is bit-identical to that reduction,
    signed zeros included. It allocates the returned array and, for the
    (c+d) term, one temporary of the same size, a quarter of grad_out.
    """

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)

    def backward(self, grad_out):
        a, b, c, d = (grad_out[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))
        out = np.add(a, b)
        if out.shape[3] == 1:
            out += c
            out += d
        else:
            out += np.add(c, d)
        out += 0.0  # turns a -0.0 sum into +0.0, as the reduction's start value does
        return out


class BatchNorm(Layer):
    """Batch normalization: per channel for NCHW inputs, per feature for NF inputs.

    Every call allocates only full-size arrays it returns or caches, plus one
    scratch array in backward; the rest works in place. A training forward
    centres x once into the array it caches as xhat and squares that into the
    array it returns; an inference forward works in its output alone;
    backward uses one dxhat array, which it returns, and one scratch array.
    Each floating-point operation, its operands and their order are those of
    the allocating textbook form (with `x.var`), so the output, the input
    gradient, the parameter gradients and the running statistics are
    bit-identical to it for contiguous inputs.
    """

    EPS = 1e-5
    MOMENTUM = 0.99

    def __init__(self, num_features, dtype=DTYPE):
        self.num_features = num_features
        self.gamma = Parameter(np.ones(num_features, dtype=dtype))
        self.beta = Parameter(np.zeros(num_features, dtype=dtype))
        # not trained: their gradient stays zero, so an Adam step leaves them as they are
        self._running = {"running_mean": Parameter(np.zeros(num_features, dtype=dtype)),
                         "running_var": Parameter(np.ones(num_features, dtype=dtype))}

    @property
    def running_mean(self):
        return self._running["running_mean"].value

    @property
    def running_var(self):
        return self._running["running_var"].value

    def tensors(self):
        return {"gamma": self.gamma, "beta": self.beta, **self._running}

    def params(self):
        return [self.gamma, self.beta]

    def _axes_and_shape(self, x):
        if x.ndim == 4:
            return (0, 2, 3), (1, self.num_features, 1, 1)
        if x.ndim == 2:
            return (0,), (1, self.num_features)
        raise ValueError(f"expected 2D or 4D input, got shape {x.shape}")

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        axes, bshape = self._axes_and_shape(x)
        gamma = self.gamma.value.reshape(bshape)
        beta = self.beta.value.reshape(bshape)
        if mode == TRAINING:
            if x.shape[0] < 2:
                raise ValueError("training-mode batch normalization needs batch size >= 2")
            mean = x.mean(axis=axes, keepdims=True)
            # the sequence `x.var` runs: centre, square, sum, then divide by the
            # count as an intp scalar (for float32, a float64 division rounded back)
            xhat = x - mean
            out = np.multiply(xhat, xhat)
            var = out.sum(axis=axes)
            np.divide(var, np.intp(x.size // self.num_features), out=var, casting="unsafe")
            mean = mean.reshape(self.num_features)
            self.running_mean[...] = (
                self.MOMENTUM * self.running_mean + (1 - self.MOMENTUM) * mean
            ).astype(self.running_mean.dtype)
            self.running_var[...] = (
                self.MOMENTUM * self.running_var + (1 - self.MOMENTUM) * var
            ).astype(self.running_var.dtype)
            std = np.sqrt(var.reshape(bshape) + self.EPS)
            np.divide(xhat, std, out=xhat)
            self._cache = (xhat, std, axes, bshape)
            np.multiply(gamma, xhat, out=out)
        else:
            std = np.sqrt(self.running_var.reshape(bshape) + self.EPS)
            out = np.subtract(x, self.running_mean.reshape(bshape))
            np.divide(out, std, out=out)
            np.multiply(gamma, out, out=out)
        np.add(out, beta, out=out)
        return out

    def backward(self, grad_out):
        xhat, std, axes, bshape = self._cache
        m = grad_out.size // self.num_features
        scratch = np.multiply(grad_out, xhat)
        self.gamma.grad += scratch.sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        dxhat = np.multiply(grad_out, self.gamma.value.reshape(bshape))
        mean_d = dxhat.sum(axis=axes).reshape(bshape) / m
        np.multiply(dxhat, xhat, out=scratch)
        mean_dx = scratch.sum(axis=axes).reshape(bshape) / m
        # (dxhat - mean_d - xhat * mean_dx) / std, left to right
        np.subtract(dxhat, mean_d, out=dxhat)
        np.multiply(xhat, mean_dx, out=scratch)
        np.subtract(dxhat, scratch, out=dxhat)
        np.divide(dxhat, std, out=dxhat)
        return dxhat


class Dense(Layer):
    """Fully connected layer: out = x @ W + b, W is He-uniform initialized."""

    def __init__(self, in_features, out_features, rng, dtype=DTYPE):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(he_uniform_init((in_features, out_features), in_features, rng, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def tensors(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (N,{self.in_features}), got {x.shape}"
            )
        if mode == TRAINING:
            self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out):
        x = self._cache
        self.weight.grad += x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T


class Embedding(Layer):
    """Index lookup into an N x d table; equivalent to one-hot times the table."""

    def __init__(self, num_embeddings, dim, rng, dtype=DTYPE):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.table = Parameter(he_uniform_init((num_embeddings, dim), dim, rng, dtype))

    def tensors(self):
        return {"table": self.table}

    def forward(self, indices, mode=INFERENCE, rng=None):
        _check_mode(mode)
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise ValueError(
                f"index out of range for table of size {self.num_embeddings}"
            )
        if mode == TRAINING:
            self._cache = indices
        return self.table.value[indices]

    def backward(self, grad_out):
        np.add.at(self.table.grad, self._cache, grad_out)
        return None  # indices carry no gradient


class ReLU(Layer):

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        if mode == TRAINING:
            self._cache = x > 0  # derivative at exactly 0 is 0
        return np.maximum(x, 0)

    def backward(self, grad_out):
        return grad_out * self._cache


class Sigmoid(Layer):

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        # exp may overflow to inf for very negative inputs; 1/(1+inf) is the
        # correct limit 0, so the overflow warning is suppressed
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-x))
        if mode == TRAINING:
            self._cache = out
        return out

    def backward(self, grad_out):
        s = self._cache
        return grad_out * s * (1.0 - s)


class Dropout(Layer):
    """Inverted dropout: survivors are scaled by 1/(1-p), inference is identity."""

    def __init__(self, p):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        if mode == INFERENCE or self.p == 0.0:
            if mode == TRAINING:
                self._cache = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        mask = mask.astype(x.dtype)
        self._cache = mask
        return x * mask

    def backward(self, grad_out):
        if self._cache is None:
            return grad_out
        return grad_out * self._cache


class Sequential(Layer):
    """Ordered layer composition with a chained backward pass."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, mode=INFERENCE, rng=None):
        for layer in self.layers:
            x = layer.forward(x, mode=mode, rng=rng)
        return x

    def backward(self, grad_out):
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class Model:
    """A network given as one list of (checkpoint name, layer) pairs, `layers`.

    Every persistent tensor of a layer is named `<layer name>.<tensor name>`,
    and all of them are packed into one `arena` in sorted-name order, the
    order of the checkpoint payload: `arena.values` is the payload, and
    `directory` (name -> {"shape", "offset"}, offsets counted in values) is
    the checkpoint header's tensor directory.
    """

    def __init__(self, layers):
        self.layers = list(layers)
        tensors = {f"{prefix}.{name}": p for prefix, layer in self.layers
                   for name, p in layer.tensors().items()}
        self._tensors = dict(sorted(tensors.items()))
        self.arena = Arena(self._tensors.values())
        self.directory = {name: {"shape": list(p.shape), "offset": p._span.start}
                          for name, p in self._tensors.items()}

    def params(self):
        """Every tensor's Parameter, in arena order."""
        return list(self._tensors.values())

    def state_dict(self):
        """Name -> value, a view into the arena, in arena order."""
        return {name: p.value for name, p in self._tensors.items()}


def snapshot_state(model):
    """A copy of every persistent tensor of the model: its arena's values."""
    return model.arena.values.copy()


def load_state(model, snapshot):
    """Copy a `snapshot_state` copy back into the model's arena."""
    values = model.arena.values
    if snapshot.shape != values.shape:
        raise ValueError(f"snapshot holds {snapshot.size} values, the model {values.size}")
    values[...] = snapshot


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

BCE_CLIP = 1e-7


def loss_eval(prediction, target, kind):
    """Mean BCE or MSE; returns (scalar loss, gradient wrt prediction)."""
    prediction = np.asarray(prediction)
    target = np.asarray(target)
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    n = prediction.size
    if kind == "mse":
        diff = prediction - target
        return float(np.mean(diff ** 2)), (2.0 / n) * diff
    if kind == "bce":
        p = np.clip(prediction, BCE_CLIP, 1.0 - BCE_CLIP)
        loss = -np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
        inside = (prediction > BCE_CLIP) & (prediction < 1.0 - BCE_CLIP)
        grad = np.where(inside, (p - target) / (p * (1.0 - p) * n), 0.0)
        return float(loss), grad.astype(prediction.dtype)
    raise ValueError(f"unknown loss kind {kind!r}")


def check_finite(value, what, epoch):
    """Stop training on a NaN or infinite epoch loss or score, naming the epoch."""
    if not math.isfinite(value):
        raise ValueError(f"epoch {epoch}: non-finite {what} {value}")


# ---------------------------------------------------------------------------
# Finite-difference gradient checking (float64 only)
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def numerical_gradient(f, x, step=FD_STEP):
    """Central-difference gradient of scalar f() wrt array x, mutated in place."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def max_relative_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def finite_diff_gradcheck(forward, backward, inputs, params=()):
    """Check analytic vs numeric gradients of sum(R * forward()).

    forward: () -> output array (re-runs the op on the current inputs/params)
    backward: (grad_out) -> tuple of input gradients (params accumulate their own)
    inputs: arrays to check by perturbation (float64, mutated in place)
    params: Parameters whose .grad to check as well
    Returns the max relative error over all checked coordinates.
    """
    out = forward()
    rng = make_rng(0, "gradcheck-probe")
    probe = rng.standard_normal(out.shape)

    def scalar():
        return float(np.sum(forward() * probe))

    for p in params:
        p.zero_grad()
    forward()
    input_grads = backward(probe)
    if input_grads is None:
        input_grads = ()
    elif isinstance(input_grads, np.ndarray):
        input_grads = (input_grads,)

    worst = 0.0
    for x, g in zip(inputs, input_grads):
        worst = max(worst, max_relative_error(g, numerical_gradient(scalar, x)))
    for p in params:
        worst = max(worst, max_relative_error(p.grad, numerical_gradient(scalar, p.value)))
    return worst
