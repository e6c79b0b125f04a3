"""Constraint-aware splitting and minority-class augmentation.

The split guarantees every held-out user and restaurant also appears in
train, keeps duplicated (user, restaurant) pairs entirely in train, and
re-splits train into train/validation under the same rules. Augmentation
then adds four transformed copies of every minority-class training image.
"""

import tempfile
from collections import Counter
from pathlib import Path

from platerec.data import (
    SynthConfig, augment_minority, generate_synthetic, load_manifest,
    three_way_split,
)

with tempfile.TemporaryDirectory() as name:
    config = SynthConfig(n_users=80, n_restaurants=8, target_ratio=6.0,
                         image_size=16, seed=3)
    manifest_path, _ = generate_synthetic(config, Path(name))
    reviews = load_manifest(manifest_path)
    print(f"{len(reviews)} reviews, "
          f"{sum(len(r.image_paths) for r in reviews)} images")

split = three_way_split(reviews, seed=3)
parts = Counter(r.partition for r in split.rows)
print(f"partitions: {dict(parts)}")

train_users = {r.user_id for r in split.rows if r.partition == "train"}
test_users = {r.user_id for r in split.rows if r.partition == "test"}
print(f"test users covered by train: {test_users <= train_users}")

train = split.rows_in("train")
labels = Counter(r.label for r in train)
print(f"train labels before augmentation: {dict(labels)}")
augmented = augment_minority(train)
labels_after = Counter(r.label for r in augmented)
print(f"after (minority x5): {dict(labels_after)}")
origins = Counter(r.origin for r in augmented if r.origin != "original")
print(f"transform origins: {dict(origins)}")
