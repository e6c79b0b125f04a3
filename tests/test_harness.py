import json

import numpy as np
import pytest

from platerec import cli, harness, nn
from platerec.cae import CaeConfig, build_cae
from platerec.metrics import MetricsReport, format_report
from platerec.data import (
    SynthConfig, generate_synthetic, load_feature_file, load_split, save_feature_file,
)
from platerec.recmodel import RecConfig, build_recommender
from platerec.recmodel import TriadBatch


def tiny_rec_model(seed=0):
    cfg = RecConfig(n_users=4, n_restaurants=3, image_feature_dim=6,
                    embed_dim=8, seed=seed)
    return build_recommender(cfg)


def probe_batch(cfg, seed=0):
    rng = nn.make_rng(seed, "probe")
    return TriadBatch(
        users=rng.integers(0, cfg.n_users, size=8),
        restaurants=rng.integers(0, cfg.n_restaurants, size=8),
        features=rng.normal(size=(8, cfg.image_feature_dim)).astype(np.float32),
        labels=rng.integers(0, 2, size=8),
    )


class TestCheckpoint:

    def test_rec_round_trip_byte_identical(self, tmp_path):
        model = tiny_rec_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        harness.save_checkpoint(model, p1)
        harness.save_checkpoint(harness.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_cae_round_trip_byte_identical(self, tmp_path):
        model = build_cae(CaeConfig(seed=1))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        harness.save_checkpoint(model, p1)
        harness.save_checkpoint(harness.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_identical_predictions(self, tmp_path):
        model = tiny_rec_model(seed=3)
        batch = probe_batch(model.config, seed=3)
        before = model.forward(batch)
        path = tmp_path / "m.ckpt"
        harness.save_checkpoint(model, path)
        after = harness.load_checkpoint(path).forward(batch)
        assert np.array_equal(before, after)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(harness.CheckpointError):
            harness.load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        model = tiny_rec_model()
        path = tmp_path / "m.ckpt"
        harness.save_checkpoint(model, path)
        header, _, payload = path.read_bytes().partition(b"\n")
        meta = json.loads(header)
        meta["format_version"] = 99
        path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        with pytest.raises(harness.CheckpointError):
            harness.load_checkpoint(path)

    def test_tampered_shape_rejected(self, tmp_path):
        model = tiny_rec_model()
        path = tmp_path / "m.ckpt"
        harness.save_checkpoint(model, path)
        header, _, payload = path.read_bytes().partition(b"\n")
        meta = json.loads(header)
        name = sorted(meta["tensors"])[0]
        meta["tensors"][name]["shape"][0] += 1
        path.write_bytes(json.dumps(meta).encode() + b"\n" + payload)
        with pytest.raises(harness.CheckpointError):
            harness.load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = tiny_rec_model()
        path = tmp_path / "m.ckpt"
        harness.save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(harness.CheckpointError):
            harness.load_checkpoint(path)

    def test_plain_object_rejected(self, tmp_path):
        with pytest.raises(harness.CheckpointError):
            harness.save_checkpoint(object(), tmp_path / "x.ckpt")


class TestRandomProjection:

    def test_deterministic(self):
        imgs = {"a": np.ones((4, 4, 3), dtype=np.float32),
                "b": np.zeros((4, 4, 3), dtype=np.float32)}
        f1 = harness.random_projection_features(imgs, 5, seed=7)
        f2 = harness.random_projection_features(imgs, 5, seed=7)
        assert set(f1) == {"a", "b"}
        for k in f1:
            assert np.array_equal(f1[k], f2[k])
        assert np.array_equal(f2["b"], np.zeros(5, dtype=np.float32))

    def test_seed_changes_output(self):
        imgs = {"a": np.ones((4, 4, 3), dtype=np.float32)}
        f1 = harness.random_projection_features(imgs, 5, seed=1)
        f2 = harness.random_projection_features(imgs, 5, seed=2)
        assert not np.array_equal(f1["a"], f2["a"])

    def test_empty_input(self):
        assert harness.random_projection_features({}, 5, seed=0) == {}


class TestConfigAndReport:

    def test_unknown_feature_source(self, tmp_path):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(data_dir=str(tmp_path), out_dir=str(tmp_path),
                                     feature_source="resnet")

    def test_feature_file_source_needs_path(self, tmp_path):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(data_dir=str(tmp_path), out_dir=str(tmp_path),
                                     feature_source="feature-file")

    def test_write_report_rejects_empty_history(self, tmp_path):
        report = harness.RunReport(config={}, seed=0, metrics={}, cae_history=None,
                                   rec_history={"val_b_score": []},
                                   wall_times={}, n_reduce_blocks=2)
        with pytest.raises(ValueError):
            harness.write_report(report, tmp_path / "r.json")


@pytest.fixture(scope="module")
def synth_dirs(tmp_path_factory):
    """A small synthetic dataset plus one full pipeline run over it."""
    data_dir = tmp_path_factory.mktemp("data")
    out_dir = tmp_path_factory.mktemp("out")
    generate_synthetic(SynthConfig(n_users=25, n_restaurants=6, target_ratio=3.0,
                                   image_size=16, signal_strength=0.8, seed=5),
                       data_dir)
    config = harness.ExperimentConfig(
        data_dir=str(data_dir), out_dir=str(out_dir), image_size=16, seed=5,
        cae_max_epochs=2, cae_patience=2, rec_max_epochs=3, rec_patience=3,
        embed_dim=8,
    )
    report = harness.run_experiment(config)
    return data_dir, out_dir, config, report


class TestPipeline:

    def test_artifacts_exist(self, synth_dirs):
        _, out_dir, _, _ = synth_dirs
        for name in ("split.jsonl", "augmented_split.jsonl", "cae.ckpt",
                     "features.txt", "rec.ckpt", "report.json", "report.txt"):
            assert (out_dir / name).exists(), name

    def test_report_round_trip_exact(self, synth_dirs):
        _, out_dir, _, report = synth_dirs
        loaded = harness.load_report(out_dir / "report.json")
        assert loaded.to_dict() == report.to_dict()

    def test_report_covers_partitions(self, synth_dirs):
        _, _, _, report = synth_dirs
        assert "train" in report.metrics and "validation" in report.metrics
        assert "test" in report.metrics

    def test_missing_manifest_is_stage_error(self, tmp_path):
        config = harness.ExperimentConfig(data_dir=str(tmp_path / "nope"),
                                          out_dir=str(tmp_path / "out"))
        with pytest.raises(harness.StageError) as err:
            harness.run_experiment(config)
        assert err.value.stage == "split"

    def test_rerun_metrics_identical(self, synth_dirs, tmp_path):
        data_dir, _, config, report = synth_dirs
        from dataclasses import replace
        rerun = harness.run_experiment(replace(config, out_dir=str(tmp_path / "out2")))
        assert rerun.to_dict()["metrics"] == report.to_dict()["metrics"]

    def test_feature_file_source_reuses_extraction(self, synth_dirs, tmp_path):
        data_dir, out_dir, config, report = synth_dirs
        from dataclasses import replace
        reuse = replace(config, out_dir=str(tmp_path / "out3"),
                        feature_source="feature-file",
                        feature_file=str(out_dir / "features.txt"))
        rerun = harness.run_experiment(reuse)
        assert rerun.to_dict()["metrics"] == report.to_dict()["metrics"]

    def test_nan_pixel_is_a_features_stage_error(self, synth_dirs, tmp_path, monkeypatch):
        _, _, config, _ = synth_dirs
        from dataclasses import replace
        load = harness._load_resized

        def load_with_nan(path, roots, size):
            img = load(path, roots, size).copy()
            img[0, 0, 0] = np.nan
            return img

        monkeypatch.setattr(harness, "_load_resized", load_with_nan)
        with pytest.raises(harness.StageError) as err:
            harness.run_experiment(replace(config, out_dir=str(tmp_path / "nan")))
        assert err.value.stage == "features"
        assert "epoch 1: non-finite train loss" in str(err.value)

    def test_nan_feature_row_is_a_train_rec_stage_error(self, synth_dirs, tmp_path):
        _, out_dir, config, _ = synth_dirs
        from dataclasses import replace
        train_ref = load_split(out_dir / "augmented_split.jsonl").rows_in("train")[0].image_path
        features = load_feature_file(out_dir / "features.txt")
        features[train_ref] = np.full_like(features[train_ref], np.nan)
        save_feature_file(features, tmp_path / "nan.txt")
        with pytest.raises(harness.StageError) as err:
            harness.run_experiment(replace(config, out_dir=str(tmp_path / "nan"),
                                           feature_source="feature-file",
                                           feature_file=str(tmp_path / "nan.txt")))
        assert err.value.stage == "train-rec"
        assert "epoch 1: non-finite train loss" in str(err.value)

    def test_ablation_runs_both_variants(self, synth_dirs, tmp_path):
        data_dir, _, config, _ = synth_dirs
        from dataclasses import replace
        result = harness.run_ablation(replace(config, out_dir=str(tmp_path / "abl")))
        assert set(result["variants"]) == {"1", "2"}
        table = result["table"]
        for label in ("Sens.", "Spec.", "Precision", "F1-Score", "B-Score"):
            assert label in table
        assert "1RB" in table and "2RB" in table
        assert (tmp_path / "abl" / "rec_1rb.ckpt").exists()
        assert (tmp_path / "abl" / "rec_2rb.ckpt").exists()


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """A synthetic dataset and one `platerec run` over it, through the CLI."""
    data = tmp_path_factory.mktemp("cli-data")
    out = tmp_path_factory.mktemp("cli-run")
    assert cli.main(["synth", "--users", "20", "--size", "16", "--seed", "3",
                     "--out", str(data)]) == 0
    assert cli.main(["run", "--data", str(data), "--out", str(out), "--size", "16",
                     "--seed", "3", "--embed", "16", "--cae-max-epochs", "2",
                     "--max-epochs", "5"]) == 0
    return data, out


class TestCli:

    def test_staged_commands_match_run(self, cli_run, tmp_path):
        data, run_out = cli_run
        out = tmp_path / "staged"
        for argv in (
            ["split", "--manifest", str(data / "manifest.jsonl"), "--seed", "3"],
            ["augment", "--split", str(out), "--data", str(data)],
            ["train-cae", "--split", str(out), "--data", str(data), "--size", "16",
             "--max-epochs", "2", "--seed", "3"],
            ["extract", "--cae", str(out / "cae.ckpt"), "--split", str(out),
             "--data", str(data)],
            ["train-rec", "--features", str(out / "features.txt"), "--split", str(out),
             "--embed", "16", "--max-epochs", "5", "--seed", "3"],
        ):
            target = out / "features.txt" if argv[0] == "extract" else out
            assert cli.main(argv + ["--out", str(target)]) == 0, argv[0]
        for name in ("split.jsonl", "augmented_split.jsonl", "cae.ckpt",
                     "features.txt", "rec.ckpt"):
            assert (out / name).read_bytes() == (run_out / name).read_bytes(), name

    def test_evaluate_train_matches_report(self, cli_run, capsys):
        _, out = cli_run
        train = MetricsReport.from_dict(
            json.loads((out / "report.json").read_text())["metrics"]["train"])
        # augmented rows are never scored: train metrics cover the original rows
        assert train.counts.total == len(load_split(out / "split.jsonl").rows_in("train"))
        capsys.readouterr()
        assert cli.main(["evaluate", "--model", str(out / "rec.ckpt"),
                         "--features", str(out / "features.txt"),
                         "--split", str(out), "--partition", "train"]) == 0
        assert capsys.readouterr().out == (
            f"[train] {train.counts.total} triads\n{format_report(train)}\n")

    def test_synth_split_train_evaluate(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "out"
        assert cli.main(["synth", "--users", "20", "--restaurants", "5",
                         "--ratio", "3", "--size", "16", "--seed", "4",
                         "--out", str(data)]) == 0
        assert cli.main(["run", "--data", str(data), "--out", str(out),
                         "--size", "16", "--seed", "4", "--embed", "8",
                         "--cae-max-epochs", "2", "--max-epochs", "2"]) == 0
        assert (out / "report.json").exists()
        assert cli.main(["evaluate", "--model", str(out / "rec.ckpt"),
                         "--features", str(out / "features.txt"),
                         "--split", str(out), "--partition", "test"]) == 0
        assert "B-Score" in capsys.readouterr().out

    def test_split_command(self, tmp_path):
        data = tmp_path / "data"
        out = tmp_path / "out"
        cli.main(["synth", "--users", "15", "--restaurants", "4", "--size", "16",
                  "--out", str(data)])
        assert cli.main(["split", "--manifest", str(data / "manifest.jsonl"),
                         "--seed", "1", "--out", str(out)]) == 0
        assert (out / "split.jsonl").exists()

    def test_failure_returns_nonzero(self, tmp_path, capsys):
        rc = cli.main(["split", "--manifest", str(tmp_path / "missing.jsonl"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err != ""
