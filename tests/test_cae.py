import copy
import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import platerec
from conftest import named_views
from platerec import harness, nn
from platerec.cae import (
    INFER_BLOCK_BYTES, CaeConfig, CaeModel, _as_batch, build_cae, encode_image, encode_images,
    evaluate_loss, images_per_block, reconstruct_image, train_cae,
)


def smooth_images(n, size, seed):
    """Low-frequency images a small bottleneck can actually represent."""
    rng = nn.make_rng(seed, "smooth")
    out = []
    for _ in range(n):
        grid = rng.random((4, 4, 3)).astype(np.float32)
        from platerec.data import resize_image
        out.append(0.2 + 0.6 * resize_image(grid, size, size))
    return out


class TestConfig:

    def test_code_length_224(self):
        assert CaeConfig(input_height=224, input_width=224).code_length == 2352

    def test_code_length_32(self):
        assert CaeConfig().code_length == 48

    def test_not_divisible_by_8(self):
        with pytest.raises(ValueError):
            CaeConfig(input_height=30, input_width=30)

    @pytest.mark.parametrize("batch_size", [1, 0])
    def test_batch_size_below_two_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            CaeConfig(batch_size=batch_size)

    @pytest.mark.parametrize("size", range(8, 225, 8))
    def test_code_length_formula(self, size):
        cfg = CaeConfig(input_height=size, input_width=size)
        assert cfg.code_length == 3 * (size // 8) * (size // 8)


class TestModel:

    def test_code_and_reconstruction_shapes(self):
        cfg = CaeConfig()
        model = build_cae(cfg)
        img = nn.make_rng(0, "img").random((32, 32, 3)).astype(np.float32)
        code = encode_image(model, img)
        assert code.shape == (48,)
        recon = reconstruct_image(model, img)
        assert recon.shape == (32, 32, 3)
        assert 0.0 < recon.min() and recon.max() < 1.0

    def test_encode_deterministic(self):
        model = build_cae(CaeConfig())
        img = nn.make_rng(1, "img").random((32, 32, 3)).astype(np.float32)
        assert np.array_equal(encode_image(model, img), encode_image(model, img))

    def test_same_seed_same_weights(self):
        a = build_cae(CaeConfig(seed=4))
        b = build_cae(CaeConfig(seed=4))
        b_values = named_views(b, b.arena.values)
        for name, arr in named_views(a, a.arena.values).items():
            assert np.array_equal(arr, b_values[name]), name

    def test_shape_mismatch_rejected(self):
        model = build_cae(CaeConfig())
        with pytest.raises(ValueError):
            encode_image(model, np.zeros((16, 16, 3), dtype=np.float32))

    def test_unknown_mode_rejected(self):
        model = build_cae(CaeConfig(input_height=8, input_width=8))
        with pytest.raises(ValueError, match="unknown mode"):
            model.forward(np.zeros((2, 3, 8, 8), dtype=np.float32), mode="train")

    def test_reconstruct_black_image(self):
        model = build_cae(CaeConfig())
        recon = reconstruct_image(model, np.zeros((32, 32, 3), dtype=np.float32))
        assert recon.shape == (32, 32, 3)


class TestTraining:

    def test_empty_train_set(self):
        cfg = CaeConfig(max_epochs=1)
        with pytest.raises(ValueError):
            train_cae(build_cae(cfg), [], [], cfg)

    def test_one_image_train_set_rejected(self):
        cfg = CaeConfig(max_epochs=1)
        with pytest.raises(ValueError, match="at least 2 rows, got 1"):
            train_cae(build_cae(cfg), smooth_images(1, 32, seed=1), [], cfg)

    def test_nan_pixel_stops_training(self):
        cfg = CaeConfig(loss_kind="mse", max_epochs=3, patience=3, seed=4)
        images = smooth_images(4, 32, seed=4)
        images[1] = images[1].copy()
        images[1][5, 7, 2] = np.nan
        with pytest.raises(ValueError, match="epoch 1: non-finite train loss"):
            train_cae(build_cae(cfg), images, smooth_images(2, 32, seed=5), cfg)

    def test_nan_validation_pixel_stops_training(self):
        cfg = CaeConfig(loss_kind="mse", max_epochs=3, patience=3, seed=4)
        val = smooth_images(2, 32, seed=5)
        val[0] = val[0].copy()
        val[0][0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="epoch 1: non-finite validation loss"):
            train_cae(build_cae(cfg), smooth_images(4, 32, seed=4), val, cfg)

    def test_loss_decreases_and_history_is_consistent(self):
        cfg = CaeConfig(loss_kind="mse", max_epochs=15, patience=15,
                        learning_rate=0.01, seed=2)
        images = smooth_images(8, 32, seed=2)
        model, history = train_cae(build_cae(cfg), images, images, cfg)
        assert history.train_loss[-1] < history.train_loss[0]
        assert all(np.isfinite(v) for v in history.train_loss)
        assert history.best_epoch == int(np.argmin(history.val_loss)) + 1

    def test_early_stop_restores_best_weights(self):
        cfg = CaeConfig(loss_kind="mse", max_epochs=10, patience=3,
                        learning_rate=0.01, seed=5)
        images = smooth_images(6, 32, seed=5)
        val = smooth_images(4, 32, seed=6)
        model, history = train_cae(build_cae(cfg), images, val, cfg)
        re_eval = evaluate_loss(model, _as_batch(val, cfg), cfg)
        assert re_eval == pytest.approx(history.val_loss[history.best_epoch - 1], rel=1e-6)

    def test_same_seed_identical_curves(self):
        cfg = CaeConfig(loss_kind="mse", max_epochs=4, patience=4, seed=8)
        images = smooth_images(6, 32, seed=8)
        _, h1 = train_cae(build_cae(cfg), images, images, cfg)
        _, h2 = train_cae(build_cae(cfg), images, images, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_patience_halts_after_stale_epochs(self):
        # lr too small to change float32 weights: only batch-norm running
        # stats drift, which settles quickly, so patience must trigger
        cfg = CaeConfig(loss_kind="mse", max_epochs=30, patience=4,
                        learning_rate=1e-12, seed=3)
        images = [np.full((32, 32, 3), 0.5, dtype=np.float32)] * 4
        _, history = train_cae(build_cae(cfg), images, images, cfg)
        assert len(history.val_loss) < cfg.max_epochs
        assert len(history.val_loss) == history.best_epoch + cfg.patience

    def test_weights_independent_of_blas_thread_count(self):
        # a BLAS that split a GEMM's reduction across threads would sum in
        # another order and change the trained weights in the last bits
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from platerec import nn
            from platerec.cae import CaeConfig, build_cae, train_cae
            from platerec.data import resize_image
            rng = nn.make_rng(0, "thread-determinism")
            images = [0.2 + 0.6 * resize_image(rng.random((4, 4, 3)).astype(np.float32), 32, 32)
                      for _ in range(64)]
            cfg = CaeConfig(max_epochs=2, patience=2, seed=0)
            model, _ = train_cae(build_cae(cfg), images, [], cfg)
            digest = hashlib.sha256()
            for name, meta in sorted(model.directory.items()):
                start = meta["offset"]
                digest.update(name.encode())
                digest.update(model.arena.values[start:start + int(np.prod(meta["shape"]))]
                              .tobytes())
            print(digest.hexdigest())
        """)
        src = str(Path(platerec.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300, check=True)
            digests.append(run.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


class TestFirstConv:

    def test_only_the_first_conv_skips_its_input_gradient(self):
        model = build_cae(CaeConfig(input_height=8, input_width=8))
        convs = [layer for seq in (model.encoder, model.decoder)
                 for layer in seq.layers if isinstance(layer, nn.Conv3x3)]
        assert [conv.input_grad for conv in convs] == [False] + [True] * 7
        assert convs[0] is model.encoder.layers[0]

    def test_first_conv_backward_gives_the_weight_gradient_only(self):
        model = build_cae(CaeConfig(input_height=8, input_width=8))
        x = nn.make_rng(1, "first-conv").random((2, 3, 8, 8)).astype(np.float32)
        out = model.forward(x, mode=nn.TRAINING)
        assert model.backward(np.ones_like(out)) is None
        assert np.any(model.encoder.layers[0].weight.grad != 0)

    def test_two_epochs_give_the_weights_of_the_full_backward(self):
        # sha256 of the weights after two epochs when every conv still computed
        # its input gradient, re-pinned when the decoder's up-convs moved to the
        # sub-pixel form, when their input gradient took the plain conv's tap
        # order, when Adam took its folded form and when BatchNorm's backward
        # took its closed form; this build's BLAS and numpy enter the bytes
        cfg = CaeConfig(input_height=8, input_width=8, batch_size=4, max_epochs=2,
                        patience=2, seed=6)
        rng = nn.make_rng(6, "cae-digest-images")
        images = [rng.random((8, 8, 3)).astype(np.float32) for _ in range(10)]
        model, history = train_cae(build_cae(cfg), images[:8], images[8:], cfg)
        assert len(history.train_loss) == 2
        assert hashlib.sha256(model.arena.values.tobytes()).hexdigest() == (
            "f7302ec4e7a678c5d28a0c0d9d89e742080665f299f1bb0a74c2491b6faf0f2e")


class TestTrainingStep:

    def test_peak_memory_at_the_benchmark_shape(self):
        # batch 32 at 32x32, as the pipeline-cae benchmark trains; the arena's
        # buffers are memory mappings, which tracemalloc does not see, so the
        # peak is the step's activations, caches and temporaries
        model = build_cae(CaeConfig(seed=1))
        x = nn.make_rng(1, "step-memory").random((32, 3, 32, 32)).astype(np.float32)

        def step():
            _, grad = nn.loss_eval(model.forward(x, mode=nn.TRAINING), x, "bce")
            model.backward(grad)
            nn.adam_step(model.arena, 1e-3)

        step()  # allocates the gradient buffer and Adam's moments
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    def test_the_walk_never_runs_an_upsampling_layer(self, monkeypatch):
        # each decoder conv after the first upsamples its own input, in
        # training and inference
        def refuse(*args, **kwargs):
            raise AssertionError("Upsample2x ran")

        monkeypatch.setattr(nn.Upsample2x, "forward", refuse)
        monkeypatch.setattr(nn.Upsample2x, "backward", refuse)
        model = build_cae(CaeConfig(input_height=8, input_width=8, seed=2))
        assert not any(isinstance(layer, nn.Upsample2x) for _, layer in model.layers)
        convs = [layer for _, layer in model.layers if isinstance(layer, nn.Conv3x3)]
        assert [conv.upsample for conv in convs] == [False] * 5 + [True] * 3
        x = nn.make_rng(2, "walk").random((4, 3, 8, 8)).astype(np.float32)
        out = model.forward(x, mode=nn.TRAINING)
        assert out.shape == x.shape
        model.backward(np.ones_like(out))
        assert model.forward(x).shape == x.shape


def test_batch_encode_matches_single():
    model = build_cae(CaeConfig())
    imgs = smooth_images(3, 32, seed=11)
    batch = encode_images(model, imgs)
    for i, img in enumerate(imgs):
        assert np.allclose(batch[i], encode_image(model, img), atol=1e-5)


def randomize_norms(model, seed):
    """Gammas of alternating sign, non-trivial running statistics and shifts in
    every batch norm, written through views, so the version is incremented here."""
    rng = nn.make_rng(seed, "cae-norm-state")
    for _, layer in model.layers:
        if isinstance(layer, nn.BatchNorm):
            k = layer.num_features
            sign = np.where(np.arange(k) % 2, -1.0, 1.0)
            layer.gamma.value[...] = sign * rng.uniform(0.5, 1.5, size=k)
            layer.beta.value[...] = rng.normal(scale=0.2, size=k)
            layer.running_mean[...] = rng.normal(scale=0.5, size=k)
            layer.running_var[...] = rng.uniform(0.25, 4.0, size=k)
    model.arena.version += 1


def plain(conv):
    """`conv` without its upsampling: the same weight, applied at its input's resolution."""
    out = copy.copy(conv)
    out.upsample = False
    return out


def layer_by_layer(model, x):
    """(codes, reconstruction) of the inference forward run one layer at a
    time, each upsampling conv as an explicit `Upsample2x` -> plain conv: the
    form the folded inference must reproduce."""
    code = model.encoder.forward(x, mode=nn.INFERENCE)
    x = code
    for layer in model.decoder.layers:
        if getattr(layer, "upsample", False):
            x = plain(layer).forward(nn.Upsample2x().forward(x))
        else:
            x = layer.forward(x)
    return code, x


def assert_close(got, want, rel=1e-5):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def folded_setup(size, n, seed=0):
    cfg = CaeConfig(input_height=size, input_width=size, seed=seed)
    model = build_cae(cfg)
    randomize_norms(model, seed)
    rng = nn.make_rng(seed, "cae-fold-images")
    images = [rng.random((size, size, 3)).astype(np.float32) for _ in range(n)]
    return model, images, _as_batch(images, cfg)


class TestFoldedInference:

    def test_downsampling_blocks_pool_before_their_relu(self):
        kinds = [type(layer).__name__ for layer in build_cae(CaeConfig()).encoder.layers]
        block = ["Conv3x3", "BatchNorm"]
        assert kinds == (block + ["MaxPool2x2", "ReLU"]) * 2 + block + ["ReLU"] \
            + block + ["MaxPool2x2", "ReLU"]

    @pytest.mark.parametrize("size", [32, 8])
    @pytest.mark.parametrize("n", [1, 5, 67])
    def test_codes_and_forward_match_the_layer_by_layer_forward(self, size, n):
        model, images, x = folded_setup(size, n)
        code, recon = layer_by_layer(model, x)
        assert_close(encode_images(model, images), code.reshape(n, -1))
        assert_close(model.forward(x, mode=nn.INFERENCE), recon)
        if n > 5:
            assert np.any(code > 0) and np.any(code == 0)  # the ReLU both passes and cuts

    @pytest.mark.parametrize("size", [32, 8])
    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_evaluate_loss_matches_the_layer_by_layer_forward(self, size, kind):
        model, _, x = folded_setup(size, 67, seed=1)
        cfg = CaeConfig(input_height=size, input_width=size, loss_kind=kind)
        losses = [nn.loss_eval(layer_by_layer(model, x[s:s + 64])[1], x[s:s + 64], kind)[0]
                  for s in (0, 64)]
        want = np.average(losses, weights=[64, 3])
        assert abs(evaluate_loss(model, x, cfg) - want) <= 1e-5 * abs(want)

    def test_evaluate_loss_rejects_an_empty_batch(self):
        cfg = CaeConfig(input_height=8, input_width=8)
        with pytest.raises(ValueError, match="empty batch"):
            evaluate_loss(build_cae(cfg), np.zeros((0, 3, 8, 8), np.float32), cfg)

    @pytest.mark.parametrize("size", [32, 8])
    def test_reconstruct_image_matches_the_layer_by_layer_forward(self, size):
        model, images, x = folded_setup(size, 3, seed=2)
        for i, image in enumerate(images):
            want = layer_by_layer(model, x[i:i + 1])[1][0].transpose(1, 2, 0)
            assert_close(reconstruct_image(model, image), want)

    @pytest.mark.parametrize("size", [8, 32])
    def test_the_decoder_runs_on_the_encoder_output(self, size):
        # the two Sequentials, run in inference mode, are the model
        model, _, x = folded_setup(size, 2, seed=6)
        out = model.decoder.forward(model.encoder.forward(x, mode=nn.INFERENCE))
        assert_close(out, model.forward(x))

    def test_codes_do_not_depend_on_batch_composition(self):
        model, images, _ = folded_setup(32, 70, seed=3)
        whole = encode_images(model, images)
        for batch_size in (1, 7, 64):
            assert np.array_equal(encode_images(model, images, batch_size=batch_size), whole)
        order = nn.make_rng(3, "cae-fold-order").permutation(70)
        assert np.array_equal(encode_images(model, [images[i] for i in order]), whole[order])
        assert np.array_equal(encode_images(model, images[10:20]), whole[10:20])


class TestBlockedInference:
    """Inference runs in blocks of `images_per_block` images, written into one output."""

    def test_images_per_block(self):
        assert images_per_block(32, 32, 4) == 15
        assert images_per_block(224, 224, 4) == 1
        assert images_per_block(32, 32, 8) == 7
        # the widest grid of a block fits the budget
        assert 15 * 64 * 32 * 34 * 4 <= INFER_BLOCK_BYTES < 16 * 64 * 32 * 34 * 4

    def test_peak_memory_beyond_the_output_is_one_block(self):
        # one batch's first-conv grid alone was 17.8 MB at 64 images
        model, _, x = folded_setup(32, 200, seed=7)
        beyond = {}
        for name in ("encode", "forward"):
            run = getattr(model, name)
            run(x[:2])  # builds the fold
            for n in (64, 200):
                tracemalloc.start()
                try:
                    out = run(x[:n])
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                beyond[name, n] = peak - out.nbytes
                assert beyond[name, n] < 10 * 2 ** 20, (name, n)
            assert abs(beyond[name, 200] - beyond[name, 64]) < 2 ** 20, name

    def test_blocks_equal_the_per_image_results(self):
        block = images_per_block(32, 32, 4)
        model, _, x = folded_setup(32, 4 * block + 5, seed=8)
        codes = [model.encode(x[i:i + 1]) for i in range(len(x))]
        recons = [model.forward(x[i:i + 1]) for i in range(len(x))]
        for n in (1, block - 1, block, block + 1, 4 * block + 5):
            assert np.array_equal(model.encode(x[:n]), np.concatenate(codes[:n])), n
            assert np.array_equal(model.forward(x[:n]), np.concatenate(recons[:n])), n

    def test_the_training_forward_is_not_blocked(self, monkeypatch):
        # its batch norm takes statistics over the whole batch
        model, _, x = folded_setup(8, 2 * images_per_block(8, 8, 4) + 1, seed=9)
        seen = []
        forward = nn.Conv3x3.forward

        def recording(conv, inp, mode=nn.INFERENCE, rng=None):
            seen.append(len(inp))
            return forward(conv, inp, mode, rng)

        monkeypatch.setattr(nn.Conv3x3, "forward", recording)
        model.forward(x, mode=nn.TRAINING)
        assert seen == [len(x)] * 8

    def test_an_empty_image_list_is_an_empty_batch(self):
        cfg = CaeConfig(input_height=16, input_width=8)
        model = build_cae(cfg)
        x = _as_batch([], cfg)
        assert x.shape == (0, 3, 16, 8) and x.dtype == np.float32
        codes = encode_images(model, [])
        assert codes.shape == (0, cfg.code_length) and codes.dtype == np.float32
        assert model.encode(x).shape == (0,) + cfg.code_shape
        assert model.forward(x).shape == x.shape


class TestFoldCache:
    """The folded inference is cached on the model and rebuilt when the arena's
    version moves; each case warms the cache first, then writes the weights."""

    def warm(self):
        model, _, x = folded_setup(8, 9, seed=4)
        return model, x, model.forward(x)

    def assert_follows(self, model, x, stale):
        code, recon = layer_by_layer(model, x)
        assert_close(model.encode(x), code)
        out = model.forward(x)
        assert_close(out, recon)
        assert np.abs(out - stale).max() > 1e-4  # the write moved the output

    def adam_step_without_forward(self, model, seed):
        grad = model.arena.require_grad()
        grad[...] = nn.make_rng(seed, "cae-fold-cache-grad").normal(size=grad.size)
        nn.adam_step(model.arena, 0.05)

    def test_adam_step(self):
        model, x, stale = self.warm()
        self.adam_step_without_forward(model, 0)
        self.assert_follows(model, x, stale)

    def test_load_state(self):
        model, x, _ = self.warm()
        self.adam_step_without_forward(model, 1)
        stepped = nn.snapshot_state(model)
        self.adam_step_without_forward(model, 2)
        stale = model.forward(x)
        nn.load_state(model, stepped)
        self.assert_follows(model, x, stale)

    def test_load_checkpoint(self, tmp_path):
        model, x, stale = self.warm()
        self.adam_step_without_forward(model, 3)
        harness.save_checkpoint(model, tmp_path / "stepped.ckpt")
        loaded = harness.load_checkpoint(tmp_path / "stepped.ckpt")
        assert loaded.arena.version != 0  # the load counts as a write
        self.assert_follows(loaded, x, stale)
        assert np.array_equal(loaded.forward(x), model.forward(x))

    def test_training_forward_updates_the_running_statistics(self):
        model, x, stale = self.warm()
        model.forward(x, mode=nn.TRAINING)
        self.assert_follows(model, x, stale)

    def test_forwards_without_a_write_reuse_one_fold(self, monkeypatch):
        builds, build = [], CaeModel._build_fold

        def counting(model):
            builds.append(model)
            return build(model)

        monkeypatch.setattr(CaeModel, "_build_fold", counting)
        model, images, x = folded_setup(8, 5, seed=5)
        cfg = model.config
        first = model.forward(x)
        assert len(builds) == 1
        assert np.array_equal(model.forward(x), first)
        encode_images(model, images)
        evaluate_loss(model, x, cfg)
        reconstruct_image(model, images[0])
        assert len(builds) == 1
        self.adam_step_without_forward(model, 6)
        model.forward(x)
        assert len(builds) == 2
