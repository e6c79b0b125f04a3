"""Minimal deterministic neural-network engine.

Layers carry explicit forward/backward passes and are sufficient to build
the convolutional autoencoder and the triad classifier: 3x3 same-padding
convolution, of its input (scale 1) or of that input's 2x nearest-neighbour
upsampling (scale 2), 2x2 max pooling, batch normalization, dense, embedding
lookup, ReLU/sigmoid, inverted dropout, He-uniform initialization, BCE/MSE
losses, Adam, and `fit`, the one early-stopped mini-batch training loop both
networks use. `Upsample2x`, the plain upsampling, is the reference the
scale-2 convolution is tested against.

Everything is a plain numpy array in float32; a float64 mode exists only
for finite-difference gradient checking.

`Layer` states the gradient contract (a backward writes its gradients, so
no step zeroes them) and the cache contract (a model's backward frees each
layer's cache once used), `Conv3x3` the convolution's one code path at
both scales, `Arena` the one flat buffer that holds a model's tensors, and
`Model.fold` the cached batch-norm fold that inference runs through.
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


# Values per chunk of `he_uniform_init`'s float64 draws.
INIT_CHUNK = 64 * 1024


def he_uniform_init(shape, fan_in: int, rng: np.random.Generator, dtype=DTYPE):
    """Uniform init on [-L, L] with L = sqrt(6 / fan_in).

    The float64 draws are rounded to `dtype` INIT_CHUNK values at a time;
    the generator's stream does not depend on the chunking, so the result
    is the bytes of one whole draw cast to `dtype`.
    """
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    limit = np.sqrt(6.0 / fan_in)
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, INIT_CHUNK):
        chunk = flat[start:start + INIT_CHUNK]
        chunk[...] = rng.uniform(-limit, limit, size=chunk.size)
    return out


def _initial_weight(shape, fan_in, rng, dtype):
    """A layer's He-uniform weight, or zeros when `rng` is None: a model built
    to be filled from a checkpoint draws nothing that the payload overwrites."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    return he_uniform_init(shape, fan_in, rng, dtype)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class Parameter:
    """A persistent tensor. Once packed into an `Arena`, `value` and `grad` are
    views into the arena's buffers; `grad` is allocated on first use, and a
    backward writes into it (see `Layer`) but never rebinds it.

    A write through `value` is not seen by `Arena.version` (see `Model.fold`).
    """

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


# Values per chunk of `adam_step`. A float32 chunk's five operands (gradient,
# moments, values and one scratch chunk) take 1.25 MiB, small enough to stay
# in cache across the update's ten passes instead of streaming from memory.
ADAM_CHUNK = 64 * 1024


class Arena:
    """One model's tensors laid end to end in one contiguous buffer (the flat
    parameter and gradient buffers of ZeRO, Rajbhandari et al.,
    arXiv:1910.02054), so `adam_step` is one chunked pass, the global
    gradient norm one dot product, and a snapshot, a restore, a checkpoint
    write and a checkpoint read one copy each.

    `values` holds every parameter, in the order given (a `Model` gives its
    sorted-name order), in their one dtype, and each `Parameter.value`
    becomes a view into it. `grad`, `adam_m` and `adam_v` have the same
    layout and stay None until training first needs them (a backward pass
    or `adam_step`), so a model that only runs forward holds its weights and
    nothing else; `adam_m` and `adam_v` hold Adam's moments divided by
    (1-beta1) and (1-beta2), the scale `adam_step` works in. Packing happens
    once, when the model is built: it copies the values in and drops any
    gradient a parameter held on its own.

    `version` counts the library's writes to `values`; `Model.fold` names
    the writers and keys its cache on it.

    Each buffer is an anonymous memory mapping of its own, which goes back
    to the system when the model is freed instead of leaving a hole in the
    heap: loading a classifier while the previous one is alive peaked at
    132-140 MB RSS with heap buffers and at 124 MB with mappings.
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
        self.version = 0

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
    # no training step needs this (see `Layer`); the benchmark's span recorder wraps it
    arena.require_grad().fill(0)


def adam_step(arena, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of an arena with bias correction, in place. Gradients are left untouched.

    `adam_m` and `adam_v` hold the textbook moments m and v divided by
    (1-beta1) and (1-beta2), M and V, so that a step is

        M = beta1*M + g
        V = beta2*V + g*g
        value -= step * (M / (sqrt(V) + eps_hat))

    with r = sqrt((1-beta2**t)/(1-beta2)), step = lr*(1-beta1)/(1-beta1**t)*r
    and eps_hat = eps*r, two Python floats per step. Kingma & Ba
    (arXiv:1412.6980, section 2) move the bias corrections into the step
    size lr*sqrt(1-beta2**t)/(1-beta1**t) and into their epsilon-hat,
    eps*sqrt(1-beta2**t); putting m = (1-beta1)*M and
    sqrt(v) = sqrt(1-beta2)*sqrt(V) into their update and dividing through by
    sqrt(1-beta2) gives the form above, equal in exact arithmetic to the
    textbook lr*m_hat/(sqrt(v_hat) + eps).

    The arena is walked in chunks of ADAM_CHUNK values, all ten operations
    on one chunk before the next, in one scratch chunk allocated per call;
    the moments are allocated on the first call. The textbook order, kept
    earlier so that the values matched that form bit for bit, took 14
    passes, three of them divides, and two scratch chunks. Adam was the
    largest single cost of a classifier pass, and the folded form moves
    only the last bits (float32 values stay within 1e-6 of each tensor's
    largest after 30 steps), so the bit-for-bit match is given up.

    `step` and `eps_hat` must stay Python floats: a NumPy float64 scalar
    would make NumPy compute each float32 chunk in float64 (NEP 50).
    """
    lr, beta1, beta2, eps = _adam_hyperparameters(lr, beta1, beta2, eps)
    g = arena.require_grad()
    if arena.adam_m is None:
        arena.adam_m = _mapped_zeros(g.size, g.dtype)
        arena.adam_v = _mapped_zeros(g.size, g.dtype)
    arena.step_count += 1
    arena.version += 1
    t = arena.step_count
    r = ((1.0 - beta2 ** t) / (1.0 - beta2)) ** 0.5
    step = lr * (1.0 - beta1) / (1.0 - beta1 ** t) * r
    eps_hat = eps * r
    scratch = np.empty(min(ADAM_CHUNK, g.size), g.dtype)
    for start in range(0, g.size, ADAM_CHUNK):
        chunk = slice(start, start + ADAM_CHUNK)
        gc, m, v, value = g[chunk], arena.adam_m[chunk], arena.adam_v[chunk], arena.values[chunk]
        a = scratch[:gc.size]
        np.multiply(m, beta1, out=m)
        np.add(m, gc, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(gc, gc, out=a)
        np.add(v, a, out=v)
        np.sqrt(v, out=a)
        np.add(a, eps_hat, out=a)
        np.divide(m, a, out=a)
        np.multiply(a, step, out=a)
        np.subtract(value, a, out=value)


def _adam_hyperparameters(lr, beta1, beta2, eps):
    """The hyperparameters as Python floats, or ValueError naming a bad one."""
    lr, beta1, beta2, eps = float(lr), float(beta1), float(beta2), float(eps)
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"{name} must be in [0, 1), got {beta}")
    for name, value in (("lr", lr), ("eps", eps)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    return lr, beta1, beta2, eps


def fit(model, n_rows, batch_loss, validate, rng, config):
    """Mini-batch Adam training, early-stopped on a validation score.

    Each epoch permutes the `n_rows` training rows with `rng`. For each batch
    of their indices, `batch_loss(idx)` runs the training-mode forward pass
    and returns (loss, gradient wrt the model output); a trailing one-row
    batch is skipped, as training-mode batch norm needs two rows. `validate()`
    scores the epoch, higher is better. `config` supplies `learning_rate`,
    `batch_size`, `patience` and `max_epochs`. The best-scoring weights are
    restored at the end; a non-finite train loss or validation score raises
    ValueError naming the epoch. The model's backward releases the layers'
    training caches (see `Layer`), so none outlives its step.

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
        # each improvement overwrites the one snapshot buffer: a second
        # arena-sized copy would raise the peak memory by the arena's size
        if not stopper.update(score, epoch,
                              lambda: snapshot_state(model, out=stopper.best_snapshot)):
            break
    if stopper.best_snapshot is not None:
        load_state(model, stopper.best_snapshot)
    return train_loss, val_score, wall_time, stopper.best_epoch


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

def _check_mode(mode):
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")


class Layer:
    """Base class: forward caches what backward needs (training mode only).

    `backward(grad_out)` returns the input gradient and writes, never adds,
    each trainable parameter's gradient into its `grad`, so no step zeroes
    the gradients first. A model's backward runs every layer that holds a
    trainable parameter; the slots no backward writes, BatchNorm's running
    statistics, keep the zeros they were allocated with.

    A layer's backward leaves its `_cache` in place, so it may run twice on
    one forward. A model's backward (`backward_chain`, which
    `Sequential.backward` and both models use) drops each layer's cache as
    soon as that layer's backward has used it, so a training step frees its
    activations as the backward pass goes and none outlives the step.

    A layer with weights takes the generator that draws them; with `rng` None
    its weights start at zero.
    """

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


def _tap_sum(wtaps, taps):
    """The sum of `wtaps[t] @ taps[t]` over (O, C) matrices and (N, C, M) tap
    views -> contiguous (N, O, M).

    With few input channels (k*C <= O for k taps) the taps are stacked into
    one (N, kC, M) operand for a single GEMM; otherwise the per-tap GEMMs
    accumulate into one output without any gather copy.
    """
    o, c = wtaps[0].shape
    if len(taps) * c <= o:
        return np.matmul(np.concatenate(wtaps, axis=1), np.concatenate(taps, axis=1))
    out = np.matmul(wtaps[0], taps[0])
    tmp = np.empty_like(out)
    for wt, tap in zip(wtaps[1:], taps[1:]):
        out += np.matmul(wt, tap, out=tmp)
    return out


def _rows_to_phases(t, axis):
    """The size-4 kernel axis of `conv_kernels` at scale 2 from a 3x3 kernel's
    size-3 `axis`: [t0, t1 + t2, t0 + t1, t2]."""
    t0, t1, t2 = np.moveaxis(t, axis, 0)
    return np.stack([t0, t1 + t2, t0 + t1, t2], axis=axis)


def _phases_to_rows(t, axis):
    """The adjoint of `_rows_to_phases`: each 3x3 kernel row sums the two
    phase-tap rows it feeds, [t0 + t2, t1 + t2, t1 + t3]."""
    t0, t1, t2, t3 = np.moveaxis(t, axis, 0)
    return np.stack([t0 + t2, t1 + t2, t1 + t3], axis=axis)


def conv_kernels(weight, scale):
    """The kernels of an (O, C, 3, 3) weight at `scale`, as contiguous
    (K, K, O, C): [r, q] is the matrix an output phase applies to one padded
    tap (see `_phase_taps`). At scale 1 (K = 3) they are the 3x3 taps; at
    scale 2 (K = 4) each is a sum of 3x3 taps (see `platerec.cae`)."""
    taps = weight.transpose(2, 3, 0, 1)
    if scale == 2:
        taps = _rows_to_phases(_rows_to_phases(taps, 0), 1)
    return np.ascontiguousarray(taps)


def _phase_taps(scale, pi, pj):
    """(kernel row, kernel column, padded tap index) of the 4 - scale by
    4 - scale low-resolution taps that output phase (pi, pj) reads."""
    span = range(4 - scale)
    return [(scale * pi + a, scale * pj + b, 3 * (pi + a) + pj + b) for a in span for b in span]


def _phase_grids(buf, kernels, scale, h, w):
    """Yield the conv of a padded-flat (N, C, H, W) buffer with `kernels`, one
    output phase at a time in row-major order, each a contiguous (N, O, H, W+2)
    grid whose last two columns are slack."""
    taps = _tap_slices(buf, h, w)
    for pi, pj in np.ndindex(scale, scale):
        pairs = _phase_taps(scale, pi, pj)
        grid = _tap_sum([kernels[r, q] for r, q, _ in pairs], [taps[t] for _, _, t in pairs])
        yield grid.reshape(buf.shape[0], kernels.shape[2], h, w + 2)


def pool_grid(grid, w):
    """2x2 max pool of the first `w` columns of a contiguous (N, C, H, W+2) conv
    output grid. Each pair of grid rows is one contiguous run, so the row
    maxima come from its two halves and the column maxima from half the data."""
    n, c, h, wp = grid.shape
    pairs = grid.reshape(n, c, h // 2, 2 * wp)
    rows = np.maximum(pairs[..., :w], pairs[..., wp:wp + w])
    return np.maximum(rows[..., 0::2], rows[..., 1::2])


class Conv3x3(Layer):
    """3x3 convolution (cross-correlation), stride 1, zero 'same' padding, no
    bias, of its input (scale 1) or, with `upsample` set, of its input's 2x
    nearest-neighbour upsampling (scale 2), which is never built.

    The input is padded once into a padded-flat buffer (see `_pad_flat`) in
    which each of the nine taps is a contiguous slice, so a conv is a sum of
    per-tap GEMMs on strided views and no im2col matrix is built ("kn2row",
    Vasudevan, Anderson & Gregg, arXiv:1704.04428). The output is computed
    in scale x scale phases, phase (pi, pj) holding the output pixels
    (scale*i + pi, scale*j + pj), each on an H x (W+2) grid of the input
    whose two slack columns are cropped. At scale 1 the one phase reads the
    nine padded taps with the 3x3 taps as kernels. At scale 2 each of the
    four phases reads four taps with kernels summed from the 3x3 taps, a
    sub-pixel convolution (Shi et al., arXiv:1609.05158) that the
    `platerec.cae` module docstring derives. `_phase_taps` lists what a phase
    reads and `conv_kernels` builds the kernels; `apply` interleaves the
    phases, a crop at scale 1.

    Backward takes one phase of grad_out at a time, padded like the input.
    Each (kernel, tap) pair's weight gradient is that phase on the same
    H x (W+2) grid against the tap, whose zero slack columns add nothing; at
    scale 2 each 3x3 tap then sums the kernels it feeds. The input gradient
    applies each kernel, transposed, to the flipped tap of the padded phase,
    in ascending order of that tap, and sums the phases. The channel counts
    and the k taps a phase reads decide whether those are stacked into one
    GEMM or accumulated: forward stacks them when k * in_channels <=
    out_channels, the input gradient when k * out_channels <= in_channels.

    A network's first conv, whose input is data and needs no gradient, has
    `input_grad` set to False, and its backward computes the weight gradient
    only and returns None.
    """

    input_grad = True
    upsample = False

    def __init__(self, in_channels, out_channels, rng, dtype=DTYPE):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            _initial_weight((out_channels, in_channels, 3, 3), in_channels * 9, rng, dtype)
        )

    @property
    def scale(self):
        return 2 if self.upsample else 1

    def tensors(self):
        return {"weight": self.weight}

    def grids(self, x, kernels, mode=INFERENCE):
        """The phase grids (see `_phase_grids`) of the conv of `x` with
        `kernels`, the `conv_kernels` of this layer's weight or of a folded
        one of its shape; training mode caches the padded input for backward."""
        _check_mode(mode)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input of shape (N,{self.in_channels},H,W), got {x.shape}"
            )
        _, _, h, w = x.shape
        buf = _pad_flat(x)
        if mode == TRAINING:
            self._cache = (buf, h, w)
        return _phase_grids(buf, kernels, self.scale, h, w)

    def apply(self, x, kernels, shift=None, mode=INFERENCE):
        """The (N, O, scale*H, scale*W) conv of `x` with `kernels` (see
        `grids`), plus a per-channel (O, 1, 1) `shift` when given."""
        grids = self.grids(x, kernels, mode)  # checks x before its shape is read
        (n, _, h, w), s, o = x.shape, self.scale, kernels.shape[2]
        for k, grid in enumerate(grids):
            if k == 0:
                # allocated once the first grid exists: allocated before it, the
                # output raised a batch-32 autoencoder step's page faults by a quarter
                out = np.empty((n, o, h, s, w, s), dtype=grid.dtype)
            phase = out[:, :, :, k // s, :, k % s]
            if shift is None:
                phase[...] = grid[..., :w]
            else:
                np.add(grid[..., :w], shift, out=phase)
        return out.reshape(n, o, s * h, s * w)

    def forward(self, x, mode=INFERENCE, rng=None):
        return self.apply(x, conv_kernels(self.weight.value, self.scale), mode=mode)

    def backward(self, grad_out):
        buf, h, w = self._cache
        s, (n, o) = self.scale, grad_out.shape[:2]
        taps = _tap_slices(buf, h, w)
        kernels = conv_kernels(self.weight.value, s) if self.input_grad else None
        gbuf = np.zeros((n, o, (h + 2) * (w + 2) + 2), dtype=grad_out.dtype)
        ggrid = gbuf[:, :, :(h + 2) * (w + 2)].reshape(n, o, h + 2, w + 2)
        # the centre tap of the padded phase is the phase on the H x (W+2)
        # grid, with zeros in the two slack columns
        gtaps = _tap_slices(gbuf, h, w)
        size = s * (4 - s)
        dk = np.empty((size, size, o, self.in_channels), dtype=self.weight.grad.dtype)
        grad_in = None
        for pi, pj in np.ndindex(s, s):
            ggrid[:, :, 1:h + 1, 1:w + 1] = grad_out[:, :, pi::s, pj::s]
            pairs = _phase_taps(s, pi, pj)
            for r, q, t in pairs:
                np.matmul(gtaps[4], taps[t].transpose(0, 2, 1)).sum(axis=0, out=dk[r, q])
            if self.input_grad:
                pairs.reverse()  # summed in ascending order of the flipped tap 8 - t
                part = _tap_sum([kernels[r, q].T for r, q, _ in pairs],
                                [gtaps[8 - t] for _, _, t in pairs])
                grad_in = part if grad_in is None else np.add(grad_in, part, out=grad_in)
        if s == 2:
            dk = _phases_to_rows(_phases_to_rows(dk, 0), 1)
        np.copyto(self.weight.grad, dk.transpose(2, 3, 0, 1))
        if not self.input_grad:
            return None
        return np.ascontiguousarray(grad_in.reshape(n, self.in_channels, h, w + 2)[..., :w])


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
        if mode == TRAINING:
            # int8 routing index; strict comparisons keep the first maximum on ties
            idx = (b > a).view(np.int8)
            np.copyto(idx, (d > c).view(np.int8) + np.int8(2), where=bottom > top)
            self._cache = (idx, x.shape)
        return np.maximum(top, bottom, out=top)

    def backward(self, grad_out):
        idx, (n, c, h, w) = self._cache
        grad_in = np.empty((n, c, h // 2, 2, w // 2, 2), dtype=grad_out.dtype)
        for k in range(4):
            np.multiply(grad_out, idx == k, out=grad_in[:, :, :, k // 2, :, k % 2])
        return grad_in.reshape(n, c, h, w)


class Upsample2x(Layer):
    """Nearest-neighbor 2x upsampling; backward sums each 2x2 block.

    No model is built from it: it is the reference that an upsampling
    `Conv3x3` is tested against, which equals this layer followed by the
    plain conv.
    """

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)

    def backward(self, grad_out):
        n, c, h, w = grad_out.shape
        return grad_out.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


class BatchNorm(Layer):
    """Batch normalization: per channel for NCHW inputs, per feature for NF inputs.

    Every call allocates only the full-size arrays it returns or caches, plus
    one scratch array in backward; the rest works in place. Each
    floating-point operation, its operands and their order are those of the
    allocating textbook form (with `x.var`), so outputs, gradients and
    running statistics are bit-identical to it for contiguous inputs.
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

    def scale_shift(self):
        """(s, t) of the inference forward as the per-channel map x*s + t:
        s = gamma / sqrt(running_var + EPS), t = beta - running_mean*s."""
        scale = self.gamma.value / np.sqrt(self.running_var + self.EPS)
        return scale, self.beta.value - self.running_mean * scale

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
            arena = self._running["running_var"].arena
            if arena is not None:
                arena.version += 1
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
        scratch.sum(axis=axes, out=self.gamma.grad)
        grad_out.sum(axis=axes, out=self.beta.grad)
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
        self.weight = Parameter(
            _initial_weight((in_features, out_features), in_features, rng, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def tensors(self):
        return {"weight": self.weight, "bias": self.bias}

    def check_input(self, x):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (N,{self.in_features}), got {x.shape}"
            )

    def forward(self, x, mode=INFERENCE, rng=None):
        _check_mode(mode)
        self.check_input(x)
        if mode == TRAINING:
            self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out):
        x = self._cache
        np.matmul(x.T, grad_out, out=self.weight.grad)
        grad_out.sum(axis=0, out=self.bias.grad)
        return grad_out @ self.weight.value.T


class Embedding(Layer):
    """Index lookup into an N x d table; equivalent to one-hot times the table."""

    def __init__(self, num_embeddings, dim, rng, dtype=DTYPE):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.table = Parameter(_initial_weight((num_embeddings, dim), dim, rng, dtype))

    def tensors(self):
        return {"table": self.table}

    def check_indices(self, indices):
        """`indices` as an array, after checking every one is a row of the table:
        numpy would wrap a negative index round silently."""
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise ValueError(
                f"index out of range for table of size {self.num_embeddings}"
            )
        return indices

    def forward(self, indices, mode=INFERENCE, rng=None):
        _check_mode(mode)
        indices = self.check_indices(indices)
        if mode == TRAINING:
            self._cache = indices
        return self.table.value[indices]

    def backward(self, grad_out):
        grad = self.table.grad
        grad.fill(0)  # np.add.at adds, and rows no index hits take no gradient
        np.add.at(grad, self._cache, grad_out)
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
        return backward_chain(self.layers, grad_out)


def backward_chain(layers, grad_out):
    """Backward through `layers`, last to first, dropping each layer's cache
    as soon as its backward has used it (see `Layer`)."""
    for layer in reversed(layers):
        grad_out = layer.backward(grad_out)
        layer._cache = None
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
        tensors = dict(sorted({f"{prefix}.{name}": p for prefix, layer in self.layers
                               for name, p in layer.tensors().items()}.items()))
        self.arena = Arena(tensors.values())
        self.directory = {name: {"shape": list(p.shape), "offset": p._span.start}
                          for name, p in tensors.items()}
        self._fold = None  # (arena version, what _build_fold returned)

    def fold(self):
        """What the model's inference derives from its weights, built by the
        model's `_build_fold` and rebuilt only once `arena.version` has moved.

        In inference a BatchNorm is the per-channel map x*s + t of
        `BatchNorm.scale_shift`, so it folds into the linear layer beside it:
        s scales that layer's weights and t joins its bias or shift (Jacob et
        al., arXiv:1712.05877). One build serves every forward until the
        weights change. Every library writer of the arena increments
        `arena.version`: `adam_step`, `load_state`, the checkpoint loader and
        a training-mode BatchNorm forward (its running statistics). A write
        through a `Parameter.value` view is not seen: whoever makes one
        increments `arena.version` too. A folded forward sums in another
        float32 order and differs from the layer-by-layer one by about 1e-6
        relative. Training runs layer by layer and never reads the fold.
        """
        if self._fold is None or self._fold[0] != self.arena.version:
            self._fold = (self.arena.version, self._build_fold())
        return self._fold[1]

    def _build_fold(self):
        raise NotImplementedError


def snapshot_state(model, out=None):
    """A copy of every persistent tensor of the model: its arena's values,
    written into `out` (an earlier snapshot to overwrite) when given."""
    if out is None:
        return model.arena.values.copy()
    np.copyto(out, model.arena.values)
    return out


def load_state(model, snapshot):
    """Copy a `snapshot_state` copy back into the model's arena; a snapshot of
    another length or dtype is rejected before anything is written."""
    values = model.arena.values
    if snapshot.shape != values.shape:
        raise ValueError(f"snapshot holds {snapshot.size} values, the model {values.size}")
    if snapshot.dtype != values.dtype:
        raise ValueError(f"snapshot holds {snapshot.dtype} values, the model {values.dtype}")
    values[...] = snapshot
    model.arena.version += 1


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
    backward: (grad_out) -> tuple of input gradients (params write their own)
    inputs: arrays to check by perturbation (float64, mutated in place)
    params: Parameters whose .grad to check as well
    Returns the max relative error over all checked coordinates.
    """
    out = forward()
    rng = make_rng(0, "gradcheck-probe")
    probe = rng.standard_normal(out.shape)

    def scalar():
        return float(np.sum(forward() * probe))

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
