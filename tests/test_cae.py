import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import platerec
from platerec import nn
from platerec.cae import (
    CaeConfig, build_cae, encode_image, encode_images, reconstruct_image,
    train_cae,
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
        for name, arr in a.state_dict().items():
            assert np.array_equal(arr, b.state_dict()[name]), name

    def test_shape_mismatch_rejected(self):
        model = build_cae(CaeConfig())
        with pytest.raises(ValueError):
            encode_image(model, np.zeros((16, 16, 3), dtype=np.float32))

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
        from platerec.cae import evaluate_loss, _as_batch
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
            for name, arr in sorted(model.state_dict().items()):
                digest.update(name.encode())
                digest.update(arr.tobytes())
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
        nn.zero_grads(model.arena)
        assert model.backward(np.ones_like(out)) is None
        assert np.any(model.encoder.layers[0].weight.grad != 0)

    def test_two_epochs_give_the_weights_of_the_full_backward(self):
        # sha256 of the weights after two epochs when every conv still computed
        # its input gradient; this build's BLAS and numpy enter the bytes
        cfg = CaeConfig(input_height=8, input_width=8, batch_size=4, max_epochs=2,
                        patience=2, seed=6)
        rng = nn.make_rng(6, "cae-digest-images")
        images = [rng.random((8, 8, 3)).astype(np.float32) for _ in range(10)]
        model, history = train_cae(build_cae(cfg), images[:8], images[8:], cfg)
        assert len(history.train_loss) == 2
        assert hashlib.sha256(model.arena.values.tobytes()).hexdigest() == (
            "02ada46594ba75dae5e67b34742ba7b2c5154d113088f98d8ffe7e65446656a6")


def test_batch_encode_matches_single():
    model = build_cae(CaeConfig())
    imgs = smooth_images(3, 32, seed=11)
    batch = encode_images(model, imgs)
    for i, img in enumerate(imgs):
        assert np.allclose(batch[i], encode_image(model, img), atol=1e-5)
