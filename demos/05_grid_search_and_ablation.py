"""Hyperparameter grid search and the reduce-block ablation.

Grid search trains one classifier per (learning rate, embedding size)
pair and ranks them by validation B-score. The ablation reruns the
classifier with one vs two reduce blocks on identical splits and
features and prints the five-metric comparison table.
"""

import tempfile
from pathlib import Path

import numpy as np

from platerec import harness, nn
from platerec.data import SynthConfig, generate_synthetic
from platerec.recmodel import RecConfig, TriadBatch, grid_search

# Grid search over a synthetic, linearly separable triad problem.
rng = nn.make_rng(0, "demo-grid")
feats = rng.normal(size=(240, 8)).astype(np.float32)
batch = TriadBatch(users=rng.integers(0, 6, size=240),
                   restaurants=rng.integers(0, 5, size=240),
                   features=feats, labels=(feats[:, 0] > 0).astype(int))
train, val = batch.take(np.arange(180)), batch.take(np.arange(180, 240))
base = RecConfig(n_users=6, n_restaurants=5, image_feature_dim=8,
                 embed_dim=8, batch_size=16, max_epochs=6, patience=3, seed=0)
rows, best = grid_search(train, val, [0.01, 0.001], [8, 16], base)
for row in rows:
    print(f"lr={row['lr']:g} embed={row['embed_dim']:>3} "
          f"val b-score={row['val_b_score']:.4f}")
print(f"best: lr={best[0]:g}, embed={best[1]}\n")

# Ablation: one vs two reduce blocks on the same data and features.
with tempfile.TemporaryDirectory() as name:
    tmp = Path(name)
    generate_synthetic(
        SynthConfig(n_users=60, n_restaurants=8, target_ratio=4.0,
                    signal_strength=0.8, image_size=16, seed=5),
        tmp / "data")
    config = harness.ExperimentConfig(
        data_dir=str(tmp / "data"), out_dir=str(tmp / "out"), image_size=16,
        seed=5, cae_max_epochs=2, cae_patience=2, embed_dim=8,
        rec_max_epochs=8, rec_patience=8)
    result = harness.run_ablation(config, block_counts=(1, 2))
    print(result["table"])
