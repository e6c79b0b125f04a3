"""Acceptance checks for the full pipeline.

Each test verifies one contract end to end and prints a single
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``). The heavyweight
end-to-end checks are deterministic: fixed seeds make every metric value
reproducible bit for bit, so the thresholds here are stable, not flaky.
"""

import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from test_data import check_invariants, random_manifest  # noqa: E402
from test_nn import scripted_fit  # noqa: E402

from platerec import harness, nn  # noqa: E402
from platerec.cae import CaeConfig, build_cae, encode_image, train_cae  # noqa: E402
from platerec.data import (  # noqa: E402
    SplitRow, SynthConfig, augment_minority, generate_synthetic,
    resize_image, three_way_split,
)
from platerec.metrics import b_score  # noqa: E402
from platerec.recmodel import (  # noqa: E402
    RecConfig, TriadBatch, build_recommender, train_recommender,
)


def verdict(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    from conftest import acceptance_verdicts
    acceptance_verdicts.append(line)
    assert ok, line


def smooth_image(rng, size=32):
    grid = rng.random((4, 4, 3)).astype(np.float32)
    return np.clip(0.15 + 0.7 * resize_image(grid, size, size), 0.0, 1.0)


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------

def test_gradient_suite():
    t0 = time.perf_counter()

    def check(layer, x, params, tol, rng_seed=None):
        def forward():
            rng = nn.make_rng(rng_seed, "drop") if rng_seed is not None else None
            return layer.forward(x, mode=nn.TRAINING, rng=rng)
        err = nn.finite_diff_gradcheck(forward, layer.backward, [x], params)
        assert err < tol, f"{type(layer).__name__}: {err} >= {tol}"

    for seed in range(20):
        def r(label):
            return nn.make_rng(seed, label)
        conv = nn.Conv3x3(2, 2, r("conv"), dtype=np.float64)
        check(conv, r("cx").standard_normal((1, 2, 4, 4)), conv.params(), 1e-4)
        dense = nn.Dense(5, 4, r("dense"), dtype=np.float64)
        check(dense, r("dx").standard_normal((3, 5)), dense.params(), 1e-4)
        bn = nn.BatchNorm(3, dtype=np.float64)
        bn.gamma.value[...] = r("g").uniform(0.5, 1.5, 3)
        bn.beta.value[...] = r("b").standard_normal(3)
        check(bn, r("bx").standard_normal((5, 3)), bn.params(), 1e-3)
        bnc = nn.BatchNorm(2, dtype=np.float64)
        check(bnc, r("bcx").standard_normal((3, 2, 3, 3)), bnc.params(), 1e-3)
        check(nn.MaxPool2x2(), r("px").standard_normal((1, 2, 4, 4)), [], 1e-4)
        check(nn.Upsample2x(), r("ux").standard_normal((1, 2, 3, 3)), [], 1e-4)
        check(nn.ReLU(), r("rx").standard_normal((3, 4)) + 0.1, [], 1e-4)
        check(nn.Sigmoid(), r("sx").standard_normal((3, 4)), [], 1e-4)
        check(nn.Dropout(0.5), r("ox").standard_normal((3, 4)), [], 1e-4,
              rng_seed=seed)
        emb = nn.Embedding(4, 3, r("emb"), dtype=np.float64)
        idx = np.array([0, 1, 1, 3])
        err = nn.finite_diff_gradcheck(
            lambda: emb.forward(idx, mode=nn.TRAINING), emb.backward, [],
            emb.params())
        assert err < 1e-4

    elapsed = time.perf_counter() - t0
    verdict("gradient suite", elapsed < 60.0,
            f"10 layer types x 20 seeds, max rel err < 1e-4 (1e-3 batch norm), "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Code dimension
# ---------------------------------------------------------------------------

def test_code_dimension():
    big = CaeConfig(input_height=224, input_width=224)
    small = CaeConfig(input_height=32, input_width=32)
    code = encode_image(build_cae(small),
                        smooth_image(nn.make_rng(0, "dim"), 32))
    ok = big.code_length == 2352 and small.code_length == 48 and code.shape == (48,)
    verdict("code dimension", ok,
            f"224x224 -> {big.code_length}, 32x32 -> {small.code_length}")


# ---------------------------------------------------------------------------
# 3. B-score arithmetic
# ---------------------------------------------------------------------------

def test_b_score_arithmetic():
    b1 = b_score(0.99, 0.40)
    b2 = b_score(0.85, 0.70)
    # quoted at two decimals without rounding up
    ok = int(b1 * 100) == 56 and int(b2 * 100) == 76
    verdict("b-score arithmetic", ok,
            f"(0.99, 0.40) -> {b1:.4f} ~ 0.56, (0.85, 0.70) -> {b2:.4f} ~ 0.76")


# ---------------------------------------------------------------------------
# 4. Augmentation arithmetic
# ---------------------------------------------------------------------------

def test_augmentation_arithmetic():
    cases = [(11443, 1913, 1.20), (101275, 19805, 1.02), (157323, 22693, 1.39)]
    details = []
    ok = True
    for n_pos, n_neg, expected in cases:
        triads = [SplitRow(f"p{i}", "u", "r", 1, "original", "train") for i in range(n_pos)]
        triads += [SplitRow(f"n{i}", "u", "r", 0, "original", "train") for i in range(n_neg)]
        out = augment_minority(triads)
        pos = sum(t.label for t in out)
        neg = len(out) - pos
        ratio = pos / neg
        details.append(f"({n_pos}, {n_neg}) -> {ratio:.2f}:1")
        ok = ok and abs(ratio - expected) < 0.01
    verdict("augmentation arithmetic", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Split invariants
# ---------------------------------------------------------------------------

def test_split_invariants():
    t0 = time.perf_counter()
    for trial in range(1000):
        rng = np.random.default_rng(trial)
        reviews = random_manifest(rng)
        split = three_way_split(reviews, seed=trial)
        check_invariants(split, held="test")
        check_invariants(split, held="validation")
        # duplicated (user, restaurant) pairs sit entirely in train
        pair_count = {}
        for rec in reviews:
            key = (rec.user_id, rec.restaurant_id)
            pair_count[key] = pair_count.get(key, 0) + 1
        by_image = {r.image_path: r for r in split.rows}
        for rec in reviews:
            if pair_count[(rec.user_id, rec.restaurant_id)] >= 2:
                for p in rec.image_paths:
                    assert by_image[p].partition == "train", (trial, p)
        # coverage: every manifest image assigned exactly once
        n_images = sum(len(r.image_paths) for r in reviews)
        assert len(split.rows) == n_images
    elapsed = time.perf_counter() - t0
    verdict("split invariants", elapsed < 120.0,
            f"1000 manifests x seeds, zero violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. CAE overfit oracle
# ---------------------------------------------------------------------------

def test_cae_overfit_oracle():
    t0 = time.perf_counter()
    rng = nn.make_rng(0, "overfit")
    images = [smooth_image(rng) for _ in range(16)]
    config = CaeConfig(loss_kind="mse", max_epochs=120, patience=120,
                       learning_rate=0.005, batch_size=16, seed=0)
    _, history = train_cae(build_cae(config), images, images, config)
    ratio = history.train_loss[-1] / history.train_loss[0]
    elapsed = time.perf_counter() - t0
    verdict("cae overfit oracle", ratio <= 0.10 and elapsed < 300.0,
            f"final/epoch-1 loss = {ratio:.3f} <= 0.10, "
            f"{len(history.train_loss)} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. End-to-end learnability
# ---------------------------------------------------------------------------

def _experiment(tmp, seed, signal, rec_max_epochs, cae_max_epochs):
    data_dir = tmp / f"data_{signal}_{seed}"
    out_dir = tmp / f"out_{signal}_{seed}"
    generate_synthetic(
        SynthConfig(n_users=330, n_restaurants=15, target_ratio=6.0,
                    signal_strength=signal, image_size=32, seed=seed),
        data_dir)
    config = harness.ExperimentConfig(
        data_dir=str(data_dir), out_dir=str(out_dir), image_size=32, seed=seed,
        cae_max_epochs=cae_max_epochs, cae_patience=cae_max_epochs,
        embed_dim=16, n_reduce_blocks=2,
        rec_lr=0.0005, rec_max_epochs=rec_max_epochs, rec_patience=12)
    return harness.run_experiment(config)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_end_to_end_learnability(tmp_path):
    t0 = time.perf_counter()
    learnable = _experiment(tmp_path, 101, 0.8, rec_max_epochs=60,
                            cae_max_epochs=5)
    b_learn = learnable.metrics["test"].b_score

    no_signal = []
    for seed in range(200, 205):
        report = _experiment(tmp_path, seed, 0.0, rec_max_epochs=60,
                             cae_max_epochs=2)
        no_signal.append(report.metrics["test"].b_score)
    b_mean = float(np.mean(no_signal))
    elapsed = time.perf_counter() - t0

    ok = b_learn >= 0.9 and abs(b_mean - 0.5) <= 0.1 and elapsed < 900.0
    verdict("end-to-end learnability", ok,
            f"signal 0.8 test b={b_learn:.3f} >= 0.9; "
            f"signal 0 mean b={b_mean:.3f} within 0.5 +/- 0.1 over 5 seeds; "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Ablation harness
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")
def test_ablation_harness(tmp_path):
    data_dir = tmp_path / "data"
    generate_synthetic(
        SynthConfig(n_users=60, n_restaurants=8, target_ratio=4.0,
                    signal_strength=0.8, image_size=16, seed=7),
        data_dir)
    config = harness.ExperimentConfig(
        data_dir=str(data_dir), out_dir=str(tmp_path / "out"), image_size=16,
        seed=7, cae_max_epochs=2, cae_patience=2, embed_dim=8,
        rec_max_epochs=5, rec_patience=5)
    result = harness.run_ablation(config, block_counts=(1, 2))

    variants = result["variants"]
    # both variants trained against the same frozen split and features
    feats = (tmp_path / "out" / "features.txt").read_bytes()
    same_inputs = (variants["1"].config == variants["2"].config
                   and len(feats) > 0)
    table = result["table"]
    rows_present = all(label in table for label in
                      ("Sens.", "Spec.", "Precision", "F1-Score", "B-Score"))
    cols_present = "1RB" in table and "2RB" in table
    blocks_differ = (variants["1"].n_reduce_blocks == 1
                     and variants["2"].n_reduce_blocks == 2)
    ok = same_inputs and rows_present and cols_present and blocks_differ
    verdict("ablation harness", ok,
            "1RB and 2RB share seed/split/features; 5-metric table emitted")


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")
def test_determinism(tmp_path):
    data_dir = tmp_path / "data"
    generate_synthetic(
        SynthConfig(n_users=50, n_restaurants=6, target_ratio=4.0,
                    signal_strength=0.8, image_size=16, seed=11),
        data_dir)

    def run(out_name):
        config = harness.ExperimentConfig(
            data_dir=str(data_dir), out_dir=str(tmp_path / out_name),
            image_size=16, seed=11, cae_max_epochs=2, cae_patience=2,
            embed_dim=8, rec_max_epochs=4, rec_patience=4)
        return harness.run_experiment(config)

    r1, r2 = run("out1"), run("out2")
    metrics_identical = r1.to_dict()["metrics"] == r2.to_dict()["metrics"]

    loaded = harness.load_checkpoint(tmp_path / "out1" / "rec.ckpt")
    cfg = RecConfig(**asdict(loaded.config))
    rng = nn.make_rng(3, "probe")
    probe = TriadBatch(
        users=rng.integers(0, cfg.n_users, size=16),
        restaurants=rng.integers(0, cfg.n_restaurants, size=16),
        features=rng.normal(size=(16, cfg.image_feature_dim)).astype(np.float32),
        labels=rng.integers(0, 2, size=16))
    reload_path = tmp_path / "reload.ckpt"
    harness.save_checkpoint(loaded, reload_path)
    reloaded = harness.load_checkpoint(reload_path)
    preds_identical = np.array_equal(loaded.forward(probe),
                                     reloaded.forward(probe))
    verdict("determinism", metrics_identical and preds_identical,
            "repeated runs byte-identical; checkpoint round trip preserves "
            "predictions exactly")


# ---------------------------------------------------------------------------
# 10. Early stopping contract
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")
def test_early_stopping_contract():
    # constructed score sequences: training halts at exactly best + patience
    sequences = [
        ([0.3, 0.5, 0.4, 0.4, 0.4], 2, 2),       # improvement then plateau
        ([0.7] * 50, 1, 12),                     # constant from the start
        ([0.1, 0.2, 0.3, 0.3, 0.3, 0.3], 3, 3),  # rising then flat
    ]
    for scores, best_epoch, patience in sequences:
        (_, val_score, _, fit_best), restored, seen = scripted_fit(scores, patience)
        assert fit_best == best_epoch, scores
        assert len(val_score) == best_epoch + patience, scores
        assert restored.tobytes() == seen[best_epoch - 1].tobytes(), scores

    # restoration: re-evaluating the returned model reproduces the best score
    cfg = RecConfig(n_users=6, n_restaurants=5, image_feature_dim=8,
                    embed_dim=8, batch_size=16, max_epochs=15, patience=3,
                    learning_rate=0.01, seed=2)
    rng = nn.make_rng(1, "es")
    feats = rng.normal(size=(150, 8)).astype(np.float32)
    batch = TriadBatch(users=rng.integers(0, 6, size=150),
                       restaurants=rng.integers(0, 5, size=150),
                       features=feats, labels=(feats[:, 0] > 0).astype(int))
    train, val = batch.take(np.arange(110)), batch.take(np.arange(110, 150))
    model, history = train_recommender(build_recommender(cfg), train, val, cfg)
    from platerec.recmodel import _val_b_score
    restored = _val_b_score(model, val, cfg.decision_threshold)
    restore_ok = restored == pytest.approx(max(history.val_b_score))
    verdict("early stopping contract", restore_ok,
            f"halt at best_epoch + patience; restored weights re-evaluate to "
            f"best score {restored:.4f}")
