import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from platerec import nn


def rng64(seed, label="test"):
    return nn.make_rng(seed, label)


# ---------------------------------------------------------------------------
# Initialization and rng plumbing
# ---------------------------------------------------------------------------

class TestHeUniform:

    def test_bound_for_fan_in_six(self):
        v = nn.he_uniform_init((1,), 6, rng64(0))
        assert -1.0 <= v[0] <= 1.0  # L = sqrt(6/6) = 1

    def test_deterministic(self):
        a = nn.he_uniform_init((4, 5), 10, rng64(3))
        b = nn.he_uniform_init((4, 5), 10, rng64(3))
        assert np.array_equal(a, b)

    def test_empirical_variance(self):
        # uniform on [-L, L] has variance L^2/3 = (6/24)/3 = 1/12
        samples = nn.he_uniform_init((10 ** 5,), 24, rng64(1))
        assert np.var(samples) == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValueError):
            nn.he_uniform_init((3,), 0, rng64(0))

    def test_no_generator_gives_zero_weights(self):
        layers = [nn.Embedding(4, 2, None), nn.Dense(3, 2, None), nn.Conv3x3(2, 3, None)]
        for layer in layers:
            for p in layer.tensors().values():
                assert not p.value.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_draws_are_the_whole_draw_cast(self, dtype):
        shape = (301, 500)  # 2.3 chunks, the last one partial
        got = nn.he_uniform_init(shape, 500, rng64(4), dtype)
        limit = np.sqrt(6.0 / 500)
        whole = rng64(4).uniform(-limit, limit, size=shape).astype(dtype)
        assert got.dtype == dtype and got.shape == shape
        assert got.tobytes() == whole.tobytes()

    def test_no_float64_draw_of_the_whole_shape(self):
        nn.he_uniform_init((4,), 4, rng64(0))  # warm
        tracemalloc.start()
        try:
            out = nn.he_uniform_init((1024, 1024), 1024, rng64(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 result, one float64 chunk and change
        assert peak <= out.nbytes + 8 * nn.INIT_CHUNK + 64 * 1024


def test_derived_streams_differ():
    a = nn.make_rng(5, "a").random(8)
    b = nn.make_rng(5, "b").random(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Layer forward examples
# ---------------------------------------------------------------------------

class TestConv3x3:

    def test_identity_kernel(self):
        conv = nn.Conv3x3(1, 1, rng64(0))
        conv.weight.value[...] = 0
        conv.weight.value[0, 0, 1, 1] = 1
        out = conv.forward(np.array([[[[2.0]]]], dtype=np.float32))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(2.0)

    def test_ones_kernel_zero_padding(self):
        conv = nn.Conv3x3(1, 1, rng64(0))
        conv.weight.value[...] = 1
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = conv.forward(x)
        assert np.allclose(out, 4.0)  # each 3x3 window sees four ones

    def test_channel_mismatch(self):
        conv = nn.Conv3x3(2, 4, rng64(0))
        with pytest.raises(ValueError):
            conv.forward(np.zeros((1, 3, 4, 4), dtype=np.float32))

    def test_preserves_spatial_dims(self):
        conv = nn.Conv3x3(3, 5, rng64(1))
        out = conv.forward(np.zeros((2, 3, 6, 10), dtype=np.float32))
        assert out.shape == (2, 5, 6, 10)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 2), st.integers(1, 10), st.integers(1, 10),
                           st.integers(1, 5), st.integers(1, 5)),
           seed=st.integers(0, 2 ** 16))
    @example(shape=(2, 1, 9, 3, 4), seed=0)   # forward stacks the taps
    @example(shape=(1, 9, 1, 4, 3), seed=1)   # input gradient stacks the taps
    @example(shape=(1, 2, 18, 3, 2), seed=5)  # stacked, several input channels
    @example(shape=(1, 18, 2, 2, 3), seed=6)  # stacked input gradient, several channels
    @example(shape=(2, 3, 2, 1, 5), seed=2)   # H = 1
    @example(shape=(1, 2, 3, 4, 1), seed=3)   # W = 1
    @example(shape=(1, 10, 10, 1, 1), seed=4)
    @pytest.mark.parametrize("upsample", [False, True])
    def test_matches_direct_loop_reference(self, upsample, shape, seed):
        n, cin, cout, h, w = shape
        rng = rng64(seed)
        conv = nn.Conv3x3(cin, cout, rng, dtype=np.float64)
        conv.upsample = upsample
        weight = conv.weight.value
        x = rng.standard_normal((n, cin, h, w))
        s = 2 if upsample else 1
        h, w = s * h, s * w  # the loops run on the upsampled input
        grad_out = rng.standard_normal((n, cout, h, w))

        xp = np.pad(np.repeat(np.repeat(x, s, axis=2), s, axis=3), ((0, 0), (0, 0), (1, 1), (1, 1)))
        out_ref = np.zeros((n, cout, h, w))
        gw_ref = np.zeros_like(weight)
        gxp_ref = np.zeros_like(xp)
        for b, o, i, j in np.ndindex(n, cout, h, w):
            for c, di, dj in np.ndindex(cin, 3, 3):
                out_ref[b, o, i, j] += weight[o, c, di, dj] * xp[b, c, i + di, j + dj]
                gw_ref[o, c, di, dj] += grad_out[b, o, i, j] * xp[b, c, i + di, j + dj]
                gxp_ref[b, c, i + di, j + dj] += grad_out[b, o, i, j] * weight[o, c, di, dj]
        # each input pixel's gradient sums its s x s block of the upsampled one
        gx_ref = gxp_ref[:, :, 1:h + 1, 1:w + 1].reshape(n, cin, h // s, s, w // s, s).sum(axis=(3, 5))

        # float64 sums in another order; 1e-12 is a few thousand ulps of the terms
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.forward(x), out_ref, **tol)
        np.testing.assert_allclose(conv.forward(x, mode=nn.TRAINING), out_ref, **tol)
        np.testing.assert_allclose(conv.backward(grad_out), gx_ref, **tol)
        np.testing.assert_allclose(conv.weight.grad, gw_ref, **tol)


def assert_relatively_close(got, want, rel=1e-5):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def upsampling_conv(cin, cout, seed, dtype=np.float32):
    conv = nn.Conv3x3(cin, cout, rng64(seed, "upsampling-conv"), dtype=dtype)
    conv.upsample = True
    return conv


class TestUpsamplingConv:
    """A conv with `upsample` set against the explicit `Upsample2x` -> `Conv3x3`
    composition at the decoder's shapes, in float32."""

    @pytest.mark.parametrize("cin, cout, size", [(3, 16, 4), (32, 64, 8), (64, 3, 16)])
    def test_matches_the_upsample_then_conv_composition(self, cin, cout, size):
        rng = rng64(size, "upsampling-conv-data")
        conv, up = upsampling_conv(cin, cout, size), nn.Upsample2x()
        plain = nn.Conv3x3(cin, cout, None)
        plain.weight.value[...] = conv.weight.value
        x = rng.standard_normal((4, cin, size, size)).astype(np.float32)
        grad_out = rng.standard_normal((4, cout, 2 * size, 2 * size)).astype(np.float32)

        assert_relatively_close(conv.forward(x, mode=nn.TRAINING),
                                plain.forward(up.forward(x), mode=nn.TRAINING))
        assert_relatively_close(conv.backward(grad_out), up.backward(plain.backward(grad_out)))
        assert_relatively_close(conv.weight.grad, plain.weight.grad)

        # folded inference: the phase kernels of a scaled weight, plus a shift
        scale = rng.uniform(0.5, 1.5, cout).astype(np.float32)
        shift = rng.standard_normal((cout, 1, 1)).astype(np.float32)
        plain.weight.value[...] = conv.weight.value * scale[:, None, None, None]
        got = conv.apply(x, nn.conv_kernels(plain.weight.value, 2), shift)
        assert_relatively_close(got, plain.forward(up.forward(x)) + shift)

    # at scale 1 each kernel is one 3x3 tap; at scale 2 phase 0 reads offset -1
    # with row 0 and offset 0 with rows 1 + 2, and phase 1 reads offset 0 with
    # rows 0 + 1 and offset +1 with row 2
    @pytest.mark.parametrize("scale, rows", [(1, [[0], [1], [2]]),
                                             (2, [[0], [1, 2], [0, 1], [2]])])
    def test_phase_kernels_sum_the_taps_each_phase_reads(self, scale, rows):
        weight = rng64(0, "phase-kernels").standard_normal((2, 3, 3, 3))
        kernels = nn.conv_kernels(weight, scale)
        k = len(rows)
        assert kernels.shape == (k, k, 2, 3) and kernels.flags.c_contiguous
        for r, q in np.ndindex(k, k):
            want = sum(weight[:, :, d, e] for d in rows[r] for e in rows[q])
            np.testing.assert_allclose(kernels[r, q], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("upsample", [False, True])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_a_backward_can_run_twice(self, upsample, input_grad):
        conv = upsampling_conv(2, 3, 0)
        conv.upsample, conv.input_grad = upsample, input_grad
        x = rng64(1, "twice").standard_normal((2, 2, 3, 3)).astype(np.float32)
        size = 6 if upsample else 3
        grad_out = np.ones((2, 3, size, size), dtype=np.float32)
        conv.forward(x, mode=nn.TRAINING)
        first = conv.backward(grad_out), conv.weight.grad.copy()
        second = conv.backward(grad_out), conv.weight.grad
        if not input_grad:
            assert first[0] is None and second[0] is None
            first, second = first[1:], second[1:]
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


class TestMaxPool:

    def test_single_window(self):
        pool = nn.MaxPool2x2()
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        assert pool.forward(x)[0, 0, 0, 0] == 4

    def test_backward_routes_to_argmax(self):
        pool = nn.MaxPool2x2()
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        pool.forward(x, mode=nn.TRAINING)
        g = pool.backward(np.ones((1, 1, 1, 1), dtype=np.float32))
        assert np.array_equal(g[0, 0], [[0, 0], [0, 1]])

    def test_tie_breaks_to_first_in_row_major(self):
        pool = nn.MaxPool2x2()
        x = np.full((1, 1, 4, 4), 7.0, dtype=np.float32)
        out = pool.forward(x, mode=nn.TRAINING)
        assert np.allclose(out, 7.0)
        g = pool.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        expected = np.zeros((4, 4))
        expected[0::2, 0::2] = 1  # position (0,0) of each window
        assert np.array_equal(g[0, 0], expected)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            nn.MaxPool2x2().forward(np.zeros((1, 1, 3, 4), dtype=np.float32))

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(st.integers(1, 2), st.integers(1, 3),
                           st.integers(1, 4), st.integers(1, 4)),
           seed=st.integers(0, 2 ** 16), relu=st.booleans())
    def test_matches_per_window_reference(self, shape, seed, relu):
        n, c, hh, wh = shape
        rng = rng64(seed)
        # small integers make ties common; after a ReLU most ties are zeros
        x = rng.integers(-2, 3, (n, c, 2 * hh, 2 * wh)).astype(np.float32)
        if relu:
            x = np.maximum(x, 0)
        grad_out = rng.standard_normal((n, c, hh, wh)).astype(np.float32)
        out_ref = np.zeros((n, c, hh, wh), dtype=np.float32)
        route_ref = np.zeros(x.shape, dtype=bool)
        grad_ref = np.zeros(x.shape, dtype=np.float32)
        for b, ch, i, j in np.ndindex(n, c, hh, wh):
            window = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
            values = [x[b, ch, r, q] for r, q in window]
            r, q = window[values.index(max(values))]  # first maximum, row-major
            out_ref[b, ch, i, j] = x[b, ch, r, q]
            route_ref[b, ch, r, q] = True
            grad_ref[b, ch, r, q] = grad_out[b, ch, i, j]

        pool = nn.MaxPool2x2()
        assert np.array_equal(pool.forward(x), out_ref)
        assert np.array_equal(pool.forward(x, mode=nn.TRAINING), out_ref)
        routed = pool.backward(np.ones_like(grad_out))
        assert np.array_equal(routed != 0, route_ref)
        assert np.array_equal(pool.backward(grad_out), grad_ref)


class TestUpsample:

    def test_block_replication(self):
        up = nn.Upsample2x()
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        out = up.forward(x)
        assert np.array_equal(out[0, 0], [[1, 1, 2, 2], [1, 1, 2, 2],
                                          [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_pool_of_upsample_is_identity(self):
        up, pool = nn.Upsample2x(), nn.MaxPool2x2()
        for seed in range(20):
            x = rng64(seed).random((2, 3, 4, 4)).astype(np.float32)
            assert np.allclose(pool.forward(up.forward(x)), x)

    def test_backward_sums_blocks(self):
        up = nn.Upsample2x()
        up.forward(np.zeros((1, 1, 2, 2), dtype=np.float32), mode=nn.TRAINING)
        g = up.backward(np.ones((1, 1, 4, 4), dtype=np.float32))
        assert np.allclose(g, 4.0)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchNorm:

    def test_constant_batch_maps_to_beta(self):
        bn = nn.BatchNorm(3)
        x = np.full((4, 3), 2.5, dtype=np.float32)
        out = bn.forward(x, mode=nn.TRAINING)
        assert np.allclose(out, 0.0, atol=1e-4)
        bn.beta.value[...] = 5.0
        assert np.allclose(bn.forward(x, mode=nn.TRAINING), 5.0, atol=1e-4)

    def test_two_point_batch_normalizes(self):
        bn = nn.BatchNorm(1)
        x = np.array([[0.0], [2.0]], dtype=np.float32)
        out = bn.forward(x, mode=nn.TRAINING)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-3)
        assert out[1, 0] == pytest.approx(1.0, abs=1e-3)

    def test_batch_of_one_rejected_in_training(self):
        bn = nn.BatchNorm(2)
        with pytest.raises(ValueError):
            bn.forward(np.zeros((1, 2), dtype=np.float32), mode=nn.TRAINING)

    def test_running_stats_momentum(self):
        bn = nn.BatchNorm(1)
        x = np.array([[0.0], [2.0]], dtype=np.float32)
        bn.forward(x, mode=nn.TRAINING)
        assert bn.running_mean[0] == pytest.approx(0.01 * 1.0)
        assert bn.running_var[0] == pytest.approx(0.99 * 1.0 + 0.01 * 1.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), c=st.integers(1, 64), spatial=st.booleans(),
           h=st.integers(1, 9), w=st.integers(1, 9),
           scale=st.sampled_from([1e-3, 1.0, 50.0]), offset=st.sampled_from([0.0, -3.0, 200.0]),
           seed=st.integers(0, 2 ** 16))
    @example(n=32, c=64, spatial=True, h=32, w=32, scale=1.0, offset=0.0, seed=0)
    @example(n=3, c=5, spatial=True, h=7, w=3, scale=50.0, offset=200.0, seed=1)
    def test_bit_identical_to_reference(self, n, c, spatial, h, w, scale, offset, seed):
        shape = (n, c, h, w) if spatial else (n, c)
        rng = rng64(seed, "bn-ref")
        live, ref = nn.BatchNorm(c), nn.BatchNorm(c)
        for name, p in live.tensors().items():
            p.value[...] = rng.uniform(0.5, 2.0, c) if name == "running_var" else rng.normal(size=c)
            ref.tensors()[name].value[...] = p.value
        for _ in range(2):  # the second step starts from updated running statistics
            x = (rng.normal(size=shape) * scale + offset).astype(np.float32)
            grad_out = rng.normal(size=shape).astype(np.float32)
            out = live.forward(x, mode=nn.TRAINING)
            grad_in = live.backward(grad_out)
            out_ref, grad_ref = _batchnorm_reference(ref, x, nn.TRAINING, grad_out)
            assert _same_bits(out, out_ref)
            assert _same_bits(grad_in, grad_ref)
            for name, p in live.tensors().items():
                assert _same_bits(p.value, ref.tensors()[name].value)
            assert _same_bits(live.gamma.grad, ref.gamma.grad)
            assert _same_bits(live.beta.grad, ref.beta.grad)
            out_ref, _ = _batchnorm_reference(ref, x, nn.INFERENCE)
            assert _same_bits(live.forward(x), out_ref)

    def test_inference_forward_allocates_only_its_output(self):
        bn = nn.BatchNorm(64)
        bn.running_var[...] = 2.0
        x = rng64(0, "bn-mem").normal(size=(64, 64, 32, 32)).astype(np.float32)
        bn.forward(x)  # warm: the first call may set up lazily
        tracemalloc.start()
        try:
            out = bn.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes


def _batchnorm_reference(bn, x, mode, grad_out=None):
    """The allocating forward and backward that `nn.BatchNorm` must match bit for bit.

    Runs the forward pass on `x`, updating the running statistics in training
    mode, then, given `grad_out`, the backward pass, writing the gamma and
    beta gradients. Returns (output, input gradient or None).
    """
    axes, bshape = bn._axes_and_shape(x)
    gamma = bn.gamma.value.reshape(bshape)
    beta = bn.beta.value.reshape(bshape)
    if mode == nn.TRAINING:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        bn.running_mean[...] = (
            bn.MOMENTUM * bn.running_mean + (1 - bn.MOMENTUM) * mean
        ).astype(bn.running_mean.dtype)
        bn.running_var[...] = (
            bn.MOMENTUM * bn.running_var + (1 - bn.MOMENTUM) * var
        ).astype(bn.running_var.dtype)
        std = np.sqrt(var.reshape(bshape) + bn.EPS)
        xhat = (x - mean.reshape(bshape)) / std
        out = gamma * xhat + beta
    else:
        std = np.sqrt(bn.running_var.reshape(bshape) + bn.EPS)
        xhat = (x - bn.running_mean.reshape(bshape)) / std
        out = gamma * xhat + beta
    if grad_out is None:
        return out, None
    bn.gamma.grad[...] = (grad_out * xhat).sum(axis=axes)
    bn.beta.grad[...] = grad_out.sum(axis=axes)
    m = grad_out.size // bn.num_features
    dxhat = grad_out * bn.gamma.value.reshape(bshape)
    mean_d = dxhat.sum(axis=axes).reshape(bshape) / m
    mean_dx = (dxhat * xhat).sum(axis=axes).reshape(bshape) / m
    return out, (dxhat - mean_d - xhat * mean_dx) / std


class TestDense:

    def test_identity_weights(self):
        d = nn.Dense(3, 3, rng64(0))
        d.weight.value[...] = np.eye(3)
        d.bias.value[...] = 0
        x = rng64(1).random((2, 3)).astype(np.float32)
        assert np.allclose(d.forward(x), x)

    def test_hand_product(self):
        d = nn.Dense(2, 1, rng64(0))
        d.weight.value[...] = [[1.0], [1.0]]
        d.bias.value[...] = [3.0]
        out = d.forward(np.array([[1.0, 2.0]], dtype=np.float32))
        assert out[0, 0] == pytest.approx(6.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            nn.Dense(3, 2, rng64(0)).forward(np.zeros((1, 4), dtype=np.float32))


class TestActivations:

    def test_relu(self):
        out = nn.ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert nn.Sigmoid().forward(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_gradient_at_zero(self):
        s = nn.Sigmoid()
        s.forward(np.array([0.0]), mode=nn.TRAINING)
        assert s.backward(np.array([1.0]))[0] == pytest.approx(0.25)

    def test_sigmoid_strictly_inside_unit_interval(self):
        out = nn.Sigmoid().forward(np.array([-15.0, 15.0], dtype=np.float32))
        assert 0.0 < out[0] and out[1] < 1.0


class TestDropout:

    def test_p_zero_is_identity(self):
        x = rng64(0).random((5, 5)).astype(np.float32)
        drop = nn.Dropout(0.0)
        assert np.array_equal(drop.forward(x, mode=nn.TRAINING, rng=rng64(1)), x)
        assert np.array_equal(drop.forward(x, mode=nn.INFERENCE), x)

    def test_inference_is_identity(self):
        x = rng64(0).random((4, 4)).astype(np.float32)
        assert np.array_equal(nn.Dropout(0.5).forward(x, mode=nn.INFERENCE), x)

    def test_expectation_preserved(self):
        x = np.ones(10 ** 5, dtype=np.float32)
        out = nn.Dropout(0.5).forward(x, mode=nn.TRAINING, rng=rng64(2))
        assert 0.98 <= out.mean() <= 1.02

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)

    def test_same_rng_same_mask(self):
        x = np.ones((10, 10), dtype=np.float32)
        a = nn.Dropout(0.5).forward(x, mode=nn.TRAINING, rng=rng64(7))
        b = nn.Dropout(0.5).forward(x, mode=nn.TRAINING, rng=rng64(7))
        assert np.array_equal(a, b)


class TestEmbedding:

    def test_lookup_row(self):
        emb = nn.Embedding(2, 2, rng64(0))
        emb.table.value[...] = [[1, 0], [0, 1]]
        assert np.array_equal(emb.forward(np.array([1])), [[0, 1]])

    def test_one_hot_equivalence(self):
        emb = nn.Embedding(5, 3, rng64(1))
        for i in range(5):
            onehot = np.zeros(5)
            onehot[i] = 1
            assert np.allclose(onehot @ emb.table.value, emb.forward(np.array([i]))[0])

    def test_out_of_range(self):
        emb = nn.Embedding(4, 2, rng64(0))
        with pytest.raises(ValueError):
            emb.forward(np.array([4]))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_check_indices_rejects_rows_outside_the_table(self, bad):
        emb = nn.Embedding(4, 2, rng64(0))
        with pytest.raises(ValueError, match="index out of range for table of size 4"):
            emb.check_indices([0, bad, 3])

    def test_check_indices_returns_the_ids_as_an_array(self):
        ids = nn.Embedding(4, 2, rng64(0)).check_indices([3, 0, 3])
        assert isinstance(ids, np.ndarray) and ids.tolist() == [3, 0, 3]

    def test_backward_hits_only_looked_up_row(self):
        emb = nn.Embedding(3, 2, rng64(0))
        emb.forward(np.array([1]), mode=nn.TRAINING)
        emb.backward(np.array([[1.0, 2.0]]))
        assert np.array_equal(emb.table.grad, [[0, 0], [1, 2], [0, 0]])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

class TestLoss:

    def test_mse_zero_on_equal(self):
        x = rng64(0).random(10)
        loss, _ = nn.loss_eval(x, x, "mse")
        assert loss == 0.0

    def test_bce_half_is_ln2(self):
        loss, _ = nn.loss_eval(np.array([0.5]), np.array([1.0]), "bce")
        assert loss == pytest.approx(np.log(2), rel=1e-6)

    def test_bce_on_exact_labels_is_clip_limited(self):
        y = np.array([0.0, 1.0])
        loss, _ = nn.loss_eval(y, y, "bce")
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.loss_eval(np.zeros(3), np.zeros(4), "mse")

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_gradient_matches_finite_differences(self, kind):
        p = rng64(3).uniform(0.1, 0.9, 6)
        y = (rng64(4).random(6) > 0.5).astype(np.float64)
        _, grad = nn.loss_eval(p, y, kind)
        num = nn.numerical_gradient(lambda: nn.loss_eval(p, y, kind)[0], p)
        assert nn.max_relative_error(grad, num) < 1e-5


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class TestAdam:

    def test_zero_grad_is_noop(self):
        p = nn.Parameter(np.ones(4, dtype=np.float32))
        arena = nn.Arena([p])
        nn.adam_step(arena, lr=0.01)
        assert np.array_equal(p.value, np.ones(4, dtype=np.float32))
        assert arena.step_count == 1

    def test_first_step_magnitude(self):
        for g in (0.3, -2.0):
            p = nn.Parameter(np.array([1.0]))
            arena = nn.Arena([p])
            p.grad[...] = g
            nn.adam_step(arena, lr=0.001)
            assert abs(1.0 - p.value[0]) == pytest.approx(0.001, rel=1e-4)

    def test_converges_on_quadratic(self):
        p = nn.Parameter(np.array([1.0]))
        arena = nn.Arena([p])
        for _ in range(500):
            p.grad[...] = 2.0 * p.value
            nn.adam_step(arena, lr=0.05)
        assert abs(p.value[0]) < 0.01

    @pytest.mark.parametrize("lr", [0.0, -0.01, float("inf"), float("nan")])
    def test_invalid_lr(self, lr):
        with pytest.raises(ValueError, match="lr"):
            nn.adam_step(nn.Arena([nn.Parameter(np.zeros(1))]), lr=lr)

    @pytest.mark.parametrize("beta1", [-0.1, 1.0, 1.5, float("nan")])
    def test_invalid_beta1(self, beta1):
        with pytest.raises(ValueError, match="beta1"):
            nn.adam_step(nn.Arena([nn.Parameter(np.zeros(1))]), lr=0.01, beta1=beta1)

    @pytest.mark.parametrize("beta2", [-0.1, 1.0, 1.5, float("nan")])
    def test_invalid_beta2(self, beta2):
        with pytest.raises(ValueError, match="beta2"):
            nn.adam_step(nn.Arena([nn.Parameter(np.zeros(1))]), lr=0.01, beta2=beta2)

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("inf"), float("nan")])
    def test_invalid_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            nn.adam_step(nn.Arena([nn.Parameter(np.zeros(1))]), lr=0.01, eps=eps)

    def test_invalid_arguments_leave_the_arena_untouched(self):
        p = nn.Parameter(np.ones(3))
        arena = nn.Arena([p])
        p.grad[...] = 1.0
        with pytest.raises(ValueError):
            nn.adam_step(arena, lr=0.01, beta2=1.0)
        assert arena.step_count == 0 and arena.adam_m is None
        assert np.array_equal(p.value, np.ones(3))

    def test_grads_untouched(self):
        p = nn.Parameter(np.array([1.0]))
        arena = nn.Arena([p])
        p.grad[...] = 3.0
        nn.adam_step(arena, lr=0.01)
        assert p.grad[0] == 3.0

    # Mixed shapes; at 64 Ki values a chunk, the (300, 250) tensor is larger
    # than a chunk and straddles the first boundary, and the (200, 300) one
    # straddles the second.
    ADAM_SHAPES = [(3,), (7, 5), (300, 250), (2,), (4, 3, 3, 3), (200, 300), (33,)]

    def test_bit_identical_to_folded_reference(self):
        for dtype in (np.float32, np.float64):
            live, arena, ref = self.run_against(_adam_folded_reference, dtype)
            for p, q in zip(live, ref):
                assert np.array_equal(p.value, q.value)
            assert np.array_equal(arena.adam_m, np.concatenate([q.adam_m.ravel() for q in ref]))
            assert np.array_equal(arena.adam_v, np.concatenate([q.adam_v.ravel() for q in ref]))

    @pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-13), (np.float32, 1e-6)])
    def test_close_to_textbook_formula(self, dtype, rel):
        live, arena, ref = self.run_against(_adam_reference, dtype)
        m = arena.adam_m * (1.0 - 0.9)
        v = arena.adam_v * (1.0 - 0.999)
        start = 0
        for p, q in zip(live, ref):
            span = slice(start, start + p.value.size)
            start = span.stop
            for got, want in ((p.value, q.value), (m[span], q.adam_m), (v[span], q.adam_v)):
                scale = np.abs(want).max()
                assert np.abs(got.ravel() - want.ravel()).max() <= rel * scale

    def run_against(self, reference, dtype):
        """30 steps of `adam_step` over one arena and of `reference` over
        per-tensor copies, from the same values and gradients."""
        rng = nn.make_rng(0, "adam-ref")
        values = [rng.normal(size=shape).astype(dtype) for shape in self.ADAM_SHAPES]
        live = [nn.Parameter(value.copy()) for value in values]
        arena = nn.Arena(live)
        spans = np.cumsum([0] + [v.size for v in values])
        assert spans[1] < nn.ADAM_CHUNK < spans[3] and spans[5] < 2 * nn.ADAM_CHUNK < spans[6]
        ref = [_AdamReference(value) for value in values]
        for _ in range(30):
            grads = [rng.normal(scale=0.1, size=p.shape).astype(dtype) for p in live]
            for p, q, g in zip(live, ref, grads):
                p.grad[...] = g
                q.grad = g
            nn.adam_step(arena, lr=0.003)
            reference(ref, lr=0.003)
            for p, g in zip(live, grads):
                assert np.array_equal(p.grad, g)
        for p, q in zip(live, ref):
            assert p.value.dtype == q.value.dtype == q.adam_m.dtype == dtype
            assert np.shares_memory(p.value, arena.values)
        assert arena.adam_m.dtype == arena.adam_v.dtype == dtype
        assert arena.step_count == 30
        assert all(q.step_count == 30 for q in ref)
        return live, arena, ref

    def test_temporary_memory_is_one_scratch_buffer(self):
        p = nn.Parameter(np.ones((1024, 1024), dtype=np.float32))
        arena = nn.Arena([p])
        p.grad[...] = nn.make_rng(1, "adam-mem").normal(size=p.shape)
        nn.adam_step(arena, lr=0.01)  # the first call allocates the moments
        tracemalloc.start()
        try:
            nn.adam_step(arena, lr=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one scratch chunk; the slack covers the chunk loop's view objects
        assert peak <= nn.ADAM_CHUNK * p.value.itemsize + 4096


class _AdamReference:
    """One tensor's value, gradient and Adam state, held apart from any arena."""

    def __init__(self, value):
        self.value = value.copy()
        self.grad = np.zeros_like(value)
        self.adam_m = np.zeros_like(value)
        self.adam_v = np.zeros_like(value)
        self.step_count = 0


def _adam_reference(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The allocating textbook Adam step, which `nn.adam_step` must stay close to."""
    for p in params:
        p.step_count += 1
        t = p.step_count
        p.adam_m[...] = beta1 * p.adam_m + (1.0 - beta1) * p.grad
        p.adam_v[...] = beta2 * p.adam_v + (1.0 - beta2) * p.grad ** 2
        m_hat = p.adam_m / (1.0 - beta1 ** t)
        v_hat = p.adam_v / (1.0 - beta2 ** t)
        p.value -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.value.dtype)


def _adam_folded_reference(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The allocating folded Adam step of `nn.adam_step`'s docstring, tensor by
    tensor: the same operations in the same order, so it must match bit for bit."""
    for p in params:
        p.step_count += 1
        t = p.step_count
        r = ((1.0 - beta2 ** t) / (1.0 - beta2)) ** 0.5
        step = lr * (1.0 - beta1) / (1.0 - beta1 ** t) * r
        eps_hat = eps * r
        p.adam_m[...] = beta1 * p.adam_m + p.grad
        p.adam_v[...] = beta2 * p.adam_v + p.grad * p.grad
        p.value -= (p.adam_m / (np.sqrt(p.adam_v) + eps_hat)) * step


# ---------------------------------------------------------------------------
# Gradient checks (float64)
# ---------------------------------------------------------------------------

def _check(layer, x, params, tol, mode=nn.TRAINING, rng_seed=None):
    def forward():
        rng = nn.make_rng(rng_seed, "drop") if rng_seed is not None else None
        return layer.forward(x, mode=mode, rng=rng)

    err = nn.finite_diff_gradcheck(forward, layer.backward, [x], params)
    assert err < tol, f"gradient error {err} exceeds {tol}"


@pytest.mark.parametrize("seed", range(5))
class TestGradients:

    def test_conv(self, seed):
        conv = nn.Conv3x3(2, 3, rng64(seed), dtype=np.float64)
        x = rng64(seed, "x").standard_normal((1, 2, 5, 5))
        _check(conv, x, conv.params(), 1e-4)

    def test_conv_stacked_forward(self, seed):
        # 9 * 2 <= 18: the forward pass stacks the nine taps into one GEMM
        conv = nn.Conv3x3(2, 18, rng64(seed), dtype=np.float64)
        x = rng64(seed, "x").standard_normal((2, 2, 4, 5))
        _check(conv, x, conv.params(), 1e-4)

    def test_conv_stacked_input_gradient(self, seed):
        # the input gradient is a 2 -> 18 conv of grad_out, which stacks the taps
        conv = nn.Conv3x3(18, 2, rng64(seed), dtype=np.float64)
        x = rng64(seed, "x").standard_normal((1, 18, 3, 4))
        _check(conv, x, conv.params(), 1e-4)

    @pytest.mark.parametrize("cin, cout", [(2, 3), (1, 4), (8, 2)])
    def test_upsampling_conv(self, seed, cin, cout):
        # (1, 4) stacks each phase's four taps in forward, (8, 2) in the input gradient
        conv = upsampling_conv(cin, cout, seed, dtype=np.float64)
        x = rng64(seed, "x").standard_normal((2, cin, 3, 4))
        _check(conv, x, conv.params(), 1e-4)

    def test_dense(self, seed):
        dense = nn.Dense(7, 5, rng64(seed), dtype=np.float64)
        x = rng64(seed, "x").standard_normal((4, 7))
        _check(dense, x, dense.params(), 1e-4)

    def test_batchnorm_dense(self, seed):
        bn = nn.BatchNorm(3, dtype=np.float64)
        bn.gamma.value[...] = rng64(seed, "g").uniform(0.5, 1.5, 3)
        bn.beta.value[...] = rng64(seed, "b").standard_normal(3)
        x = rng64(seed, "x").standard_normal((6, 3))
        _check(bn, x, bn.params(), 1e-3)

    def test_batchnorm_conv(self, seed):
        bn = nn.BatchNorm(2, dtype=np.float64)
        x = rng64(seed, "x").standard_normal((3, 2, 4, 4))
        _check(bn, x, bn.params(), 1e-3)

    def test_maxpool(self, seed):
        pool = nn.MaxPool2x2()
        x = rng64(seed, "x").standard_normal((2, 2, 4, 4))
        _check(pool, x, [], 1e-4)

    def test_relu(self, seed):
        x = rng64(seed, "x").standard_normal((3, 4)) + 0.1  # keep off the kink
        _check(nn.ReLU(), x, [], 1e-4)

    def test_sigmoid(self, seed):
        x = rng64(seed, "x").standard_normal((3, 4))
        _check(nn.Sigmoid(), x, [], 1e-4)

    def test_upsample(self, seed):
        x = rng64(seed, "x").standard_normal((1, 2, 3, 3))
        _check(nn.Upsample2x(), x, [], 1e-4)

    def test_dropout(self, seed):
        drop = nn.Dropout(0.5)
        x = rng64(seed, "x").standard_normal((4, 6))
        _check(drop, x, [], 1e-4, rng_seed=seed)

    def test_embedding(self, seed):
        emb = nn.Embedding(5, 3, rng64(seed), dtype=np.float64)
        idx = np.array([0, 2, 2, 4])

        def forward():
            return emb.forward(idx, mode=nn.TRAINING)

        err = nn.finite_diff_gradcheck(forward, emb.backward, [], emb.params())
        assert err < 1e-4
