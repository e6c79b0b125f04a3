"""One seed, full pipeline: synthesize, split, augment, train, evaluate.

The experiment harness materializes every artifact (split files, the
autoencoder checkpoint, the feature file, the classifier checkpoint and
the report) under the output directory, and one seed fixes all of it.
"""

import tempfile
from pathlib import Path

from platerec import harness
from platerec.data import SynthConfig, generate_synthetic
from platerec.metrics import format_report

with tempfile.TemporaryDirectory() as name:
    tmp = Path(name)
    generate_synthetic(
        SynthConfig(n_users=80, n_restaurants=8, target_ratio=4.0,
                    signal_strength=0.8, image_size=16, seed=21),
        tmp / "data")

    config = harness.ExperimentConfig(
        data_dir=str(tmp / "data"), out_dir=str(tmp / "out"), image_size=16,
        seed=21, cae_max_epochs=3, cae_patience=3, embed_dim=8,
        rec_lr=0.0005, rec_max_epochs=20, rec_patience=8)
    report = harness.run_experiment(config)

    for partition, metrics in report.metrics.items():
        print(f"[{partition}]")
        print(format_report(metrics))
        print()

    print("artifacts:")
    for p in sorted(Path(tmp / "out").iterdir()):
        print(f"  {p.name}")
