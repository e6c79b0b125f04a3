import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values, named_views
from platerec import cli, harness, nn
from platerec.cae import CaeConfig, build_cae, train_cae
from platerec.metrics import ConfusionCounts, MetricsReport, format_report
from platerec.data import (
    ORIGIN_OF_KIND, SplitAssignment, SplitRow, SynthConfig, apply_transform, generate_synthetic,
    load_feature_file, load_split, read_ppm, save_feature_file, write_ppm,
)
from platerec.recmodel import RecConfig, build_recommender, train_recommender
from platerec.recmodel import TriadBatch


def tiny_rec_model(seed=0):
    cfg = RecConfig(n_users=4, n_restaurants=3, image_feature_dim=6,
                    embed_dim=8, seed=seed)
    return build_recommender(cfg)


def single_class_validation():
    """Expect the warning training gives on a validation partition of one class,
    as the small synthetic sets of these tests have."""
    return pytest.warns(UserWarning, match="single class")


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

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        models = {"cae": build_cae(CaeConfig(input_height=8, input_width=8, seed=2)),
                  "rec": tiny_rec_model(seed=2)}
        for kind, model in models.items():
            harness.save_checkpoint(model, tmp_path / f"{kind}.ckpt")

        def draw(*args, **kwargs):
            raise AssertionError("a load drew an initialization")

        monkeypatch.setattr(nn, "he_uniform_init", draw)
        for kind, model in models.items():
            loaded = harness.load_checkpoint(tmp_path / f"{kind}.ckpt")
            assert loaded.arena.values.tobytes() == model.arena.values.tobytes(), kind

    def test_inference_load_holds_only_the_weights(self, tmp_path):
        # the shape of a ranking classifier: 52 users, 15 restaurants, embed 512
        cfg = RecConfig(n_users=52, n_restaurants=15, embed_dim=512,
                        image_feature_dim=CaeConfig().code_length)
        harness.save_checkpoint(build_recommender(cfg), tmp_path / "rec.ckpt")
        tracemalloc.start()
        try:
            model = harness.load_checkpoint(tmp_path / "rec.ckpt")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arena = model.arena
        assert arena.grad is None and arena.adam_m is None and arena.adam_v is None
        assert arena.values.nbytes > 9_000_000
        # tracemalloc sees the heap; the arena's buffer is a mapping apart from it
        assert held + arena.values.nbytes <= 1.25 * arena.values.nbytes

    def test_load_peaks_at_the_payload(self, tmp_path):
        # the 52-user, embed-512 classifier: the payload goes straight into the
        # arena, so only the initialization the load overwrites is ever on the heap
        cfg = RecConfig(n_users=52, n_restaurants=15, embed_dim=512,
                        image_feature_dim=CaeConfig().code_length)
        path = tmp_path / "rec.ckpt"
        harness.save_checkpoint(build_recommender(cfg), path)
        payload = len(_read_checkpoint(path)[1])
        tracemalloc.start()
        try:
            model = harness.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert payload == model.arena.values.nbytes > 9_000_000
        assert peak <= payload + 1024 * 1024

    @pytest.mark.parametrize("cut", [-4, 4])
    def test_payload_of_the_wrong_length_names_both_sizes(self, tmp_path, cut):
        path = tmp_path / "m.ckpt"
        harness.save_checkpoint(tiny_rec_model(), path)
        header, payload = _read_checkpoint(path)
        _write_checkpoint(path, header, payload[:cut] if cut < 0 else payload + bytes(cut))
        message = (f"{path}: payload holds {len(payload) + cut} bytes, "
                   f"the tensors need {len(payload)}")
        with pytest.raises(harness.CheckpointError, match=re.escape(message)):
            harness.load_checkpoint(path)

    def test_big_endian_host_swaps_the_payload_once(self, tmp_path, monkeypatch):
        # on a big-endian host the bytes read into the arena are "<f4" in a ">f4"
        # buffer; faking the byte order here swaps correct values once instead
        path = tmp_path / "m.ckpt"
        harness.save_checkpoint(tiny_rec_model(), path)
        payload = _read_checkpoint(path)[1]
        monkeypatch.setattr(harness.sys, "byteorder", "big")
        values = harness.load_checkpoint(path).arena.values
        assert values.tobytes() == np.frombuffer(payload, "<f4").byteswap().tobytes()

    def test_training_after_a_load_matches_the_original(self, tmp_path):
        cfg = RecConfig(n_users=4, n_restaurants=3, image_feature_dim=6, embed_dim=8,
                        batch_size=4, max_epochs=3, patience=3, seed=5)
        original = build_recommender(cfg)
        harness.save_checkpoint(original, tmp_path / "rec.ckpt")
        loaded = harness.load_checkpoint(tmp_path / "rec.ckpt")
        before = named_views(original, nn.snapshot_state(original))
        train, val = probe_batch(cfg, 1), probe_batch(cfg, 2)
        for model in (original, loaded):
            train_recommender(model, train, val, cfg)
        assert original.arena.step_count == loaded.arena.step_count > 0
        trained = named_views(original, original.arena.values)
        assert not np.array_equal(trained["expand_fc.weight"], before["expand_fc.weight"])
        for name, arr in named_views(loaded, loaded.arena.values).items():
            assert arr.tobytes() == trained[name].tobytes(), name


# sha256 of the checkpoint files `_golden_models` writes; pins the header, the
# tensor names, their order and the payload encoding
GOLDEN_SHA256 = {
    "cae": "274e47f50b9b697fc277bafbad16aa46332ed844fff2fa1461191a37891c062a",
    "rec": "4c942c5cb350f81a6db5f30a74dfb4790dc4da1131fd4b52d3dbcc67e8f7fe7a",
}


def _golden_models():
    """Small fixed-seed untrained models whose batch norms hold distinct known
    running statistics. Nothing is trained, so no BLAS result enters the bytes."""
    cae = build_cae(CaeConfig(input_height=8, input_width=8, seed=3))
    rec = build_recommender(RecConfig(n_users=3, n_restaurants=2, image_feature_dim=5,
                                      embed_dim=4, n_reduce_blocks=1, seed=3))
    norms = [layer for model in (cae, rec) for _, layer in model.layers
             if isinstance(layer, nn.BatchNorm)]
    for i, bn in enumerate(norms):
        k = np.arange(bn.num_features, dtype=np.float32)
        bn.running_mean[...] = i + 0.25 * k - 1.0
        bn.running_var[...] = i + 0.125 * k + 0.5
    return {"cae": cae, "rec": rec}


class TestCheckpointFormat:

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        for kind, model in _golden_models().items():
            path, again = tmp_path / f"{kind}.ckpt", tmp_path / f"{kind}-again.ckpt"
            harness.save_checkpoint(model, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[kind], kind
            harness.save_checkpoint(harness.load_checkpoint(path), again)
            assert again.read_bytes() == path.read_bytes(), kind

    def test_payload_is_the_arena(self, tmp_path):
        for kind, model in _golden_models().items():
            path = tmp_path / f"{kind}.ckpt"
            harness.save_checkpoint(model, path)
            header, payload = _read_checkpoint(path)
            assert header["tensors"] == model.directory
            assert payload == model.arena.values.astype("<f4").tobytes(), kind

    def test_adam_leaves_the_running_statistics_bit_unchanged(self):
        models = _golden_models()
        x = nn.make_rng(4, "adam-stats").random((2, 3, 8, 8)).astype(np.float32)
        batch = probe_batch(models["rec"].config, 4)
        outputs = {"cae": lambda: models["cae"].forward(x, mode=nn.TRAINING),
                   "rec": lambda: models["rec"].forward(batch, mode=nn.TRAINING,
                                                        rng=nn.make_rng(0, "drop"))}
        for kind, model in models.items():
            model.backward(np.ones_like(outputs[kind]()))
            stats = {name: arr for name, arr in named_views(model, model.arena.values).items()
                     if name.endswith(("running_mean", "running_var"))}
            for arr in stats.values():
                arr[0] = -0.0
            before = {name: arr.tobytes() for name, arr in stats.items()}
            weights = model.arena.values.copy()
            for _ in range(3):
                nn.adam_step(model.arena, 0.01)
            assert not np.array_equal(model.arena.values, weights), kind
            for name, arr in stats.items():
                assert arr.tobytes() == before[name], name


class TestBackwardWritesGradients:

    @pytest.mark.parametrize("kind", ["cae", "rec"])
    def test_a_backward_leaves_the_gradient_of_its_batch_alone(self, kind):
        # batch B's backward after batch A's gives the bytes of B's backward in
        # a fresh model; B looks up user 0 only, so A's other user rows must go
        def backward(model, seed):
            if kind == "cae":
                target = nn.make_rng(seed, "write-grads").random((4, 3, 8, 8)).astype(np.float32)
                prediction = model.forward(target, mode=nn.TRAINING)
            else:
                batch = probe_batch(model.config, seed)
                if seed == 2:
                    batch = replace(batch, users=np.zeros_like(batch.users))
                prediction = model.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(seed, "drop"))
                target = batch.labels.astype(np.float32)
            model.backward(nn.loss_eval(prediction, target, "bce")[1])

        build = {"cae": lambda: build_cae(CaeConfig(input_height=8, input_width=8, seed=5)),
                 "rec": lambda: tiny_rec_model(seed=5)}[kind]
        twice, once = build(), build()
        backward(twice, 1)
        backward(twice, 2)
        backward(once, 2)
        assert twice.arena.grad.tobytes() == once.arena.grad.tobytes()


class TestTrainingCaches:

    def test_fit_releases_the_layer_caches(self):
        rng = nn.make_rng(2, "cache-images")
        images = [rng.random((8, 8, 3)).astype(np.float32) for _ in range(8)]
        cae_cfg = CaeConfig(input_height=8, input_width=8, batch_size=4, max_epochs=2,
                            patience=2, seed=2)
        cae, _ = train_cae(build_cae(cae_cfg), images[:6], images[6:], cae_cfg)
        rec_cfg = RecConfig(n_users=4, n_restaurants=3, image_feature_dim=6, embed_dim=8,
                            batch_size=4, max_epochs=2, patience=2, seed=2)
        rec, _ = train_recommender(build_recommender(rec_cfg), probe_batch(rec_cfg, 1),
                                   probe_batch(rec_cfg, 2), rec_cfg)
        for model in (cae, rec):
            assert [name for name, layer in model.layers if layer._cache is not None] == []

        # a further training step refills the caches it needs
        x = np.ascontiguousarray(np.stack(images[:4]).transpose(0, 3, 1, 2))
        batch = probe_batch(rec_cfg, 3)
        steps = [(cae, lambda: nn.loss_eval(cae.forward(x, mode=nn.TRAINING), x, "bce")),
                 (rec, lambda: nn.loss_eval(
                     rec.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(0, "drop")),
                     batch.labels.astype(np.float32), "bce"))]
        for model, loss_eval in steps:
            before = model.arena.values.copy()
            _, grad = loss_eval()
            model.backward(grad)
            nn.adam_step(model.arena, 1e-3)
            assert np.all(np.isfinite(model.arena.values))
            assert not np.array_equal(model.arena.values, before)

    @pytest.mark.parametrize("kind", ["cae", "rec"])
    def test_a_model_backward_releases_every_cache(self, kind):
        if kind == "cae":
            model = build_cae(CaeConfig(input_height=8, input_width=8, seed=3))
            x = nn.make_rng(3, "release").random((4, 3, 8, 8)).astype(np.float32)
            out = model.forward(x, mode=nn.TRAINING)
        else:
            model = tiny_rec_model(seed=3)
            out = model.forward(probe_batch(model.config, 3), mode=nn.TRAINING,
                                rng=nn.make_rng(0, "drop"))

        def cached():
            return [name for name, layer in model.layers if layer._cache is not None]

        assert len(cached()) > len(model.layers) // 2  # the forward filled them
        model.backward(np.ones_like(out))
        assert cached() == []


def _read_checkpoint(path):
    header_line, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(header_line), payload


def _write_checkpoint(path, header, payload):
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def _with_config(header, **fields):
    return {**header, "config": {**header["config"], **fields}}


def _with_tensor(header, index, entry):
    tensors = dict(header["tensors"])
    tensors[sorted(tensors)[index]] = entry
    return {**header, "tensors": tensors}


def _overlapping(header):
    # the second tensor starts where the first does, so the payload's last
    # floats belong to no tensor
    first = header["tensors"][sorted(header["tensors"])[0]]
    second = header["tensors"][sorted(header["tensors"])[1]]
    return _with_tensor(header, 1, {**second, "offset": first["offset"]})


MALFORMED_CHECKPOINTS = {
    "trailing-bytes": lambda h, p: (h, p + bytes(8)),
    "odd-payload-length": lambda h, p: (h, p + bytes(1)),
    "truncated": lambda h, p: (h, p[:-4]),
    "overlapping-offsets": lambda h, p: (_overlapping(h), p),
    "overlapping-offsets-longer-payload": lambda h, p: (_overlapping(h), p + bytes(4)),
    "header-list": lambda h, p: ([h], p),
    "header-number": lambda h, p: (7, p),
    "no-config": lambda h, p: ({k: v for k, v in h.items() if k != "config"}, p),
    "config-not-object": lambda h, p: ({**h, "config": [1]}, p),
    "unknown-config-field": lambda h, p: (_with_config(h, colour="red"), p),
    "missing-config-field": lambda h, p: (
        {**h, "config": {k: v for k, v in h["config"].items() if k != "seed"}}, p),
    "config-string-for-int": lambda h, p: (_with_config(h, embed_dim="8"), p),
    "config-float-for-int": lambda h, p: (_with_config(h, embed_dim=8.0), p),
    "config-bool-for-int": lambda h, p: (_with_config(h, n_reduce_blocks=True), p),
    "config-rejected-by-layer": lambda h, p: (_with_config(h, dropout_p=3), p),
    "config-rejected-by-init": lambda h, p: (_with_config(h, image_feature_dim=0), p),
    "kind-unhashable": lambda h, p: ({**h, "kind": ["rec"]}, p),
    "tensors-not-object": lambda h, p: ({**h, "tensors": ["a"]}, p),
    "tensor-entry-not-object": lambda h, p: (_with_tensor(h, 0, [1, 2]), p),
}


def _train_split(labels):
    """A split of train rows, one per path of `labels` (path -> label), each
    with a user of its own."""
    rows = [SplitRow(path, f"u{i}", "r0", label, "original", "train")
            for i, (path, label) in enumerate(labels.items())]
    return SplitAssignment(rows, {r.user_id: i for i, r in enumerate(rows)}, {"r0": 0})


class TestAugmentation:

    def test_images_of_one_basename_stay_apart(self, tmp_path):
        labels = {"a/x.ppm": 0, "b/x.ppm": 0, "c/y.ppm": 1, "c/z.ppm": 1, "c/w.ppm": 1}
        data_dir, out_dir = tmp_path / "data", tmp_path / "out"
        rng = nn.make_rng(0, "aug-basename")
        for path in labels:
            (data_dir / path).parent.mkdir(parents=True, exist_ok=True)
            write_ppm(rng.random((4, 6, 3)), data_dir / path)
        split = _train_split(labels)
        source = {r.user_id: r.image_path for r in split.rows}
        augmented = harness.materialize_augmentation(split, data_dir, out_dir).rows[5:]
        assert len(augmented) == 8 and len({r.image_path for r in augmented}) == 8
        for row in augmented:
            kind = harness.KIND_OF_ORIGIN[row.origin]
            write_ppm(apply_transform(read_ppm(data_dir / source[row.user_id]), kind),
                      tmp_path / "expected.ppm")
            assert row.image_path == f"augmented/{row.origin}/{source[row.user_id]}"
            assert (out_dir / row.image_path).read_bytes() == \
                (tmp_path / "expected.ppm").read_bytes()

    @pytest.mark.parametrize("bad", ["/abs/x.ppm", "../x.ppm", "a/../../x.ppm"])
    def test_a_path_leaving_the_output_directory_is_rejected(self, tmp_path, bad):
        split = _train_split({bad: 0, "c/y.ppm": 1, "c/z.ppm": 1})
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            harness.materialize_augmentation(split, tmp_path, tmp_path / "out")


class TestCheckpointReader:
    """Every malformed checkpoint raises CheckpointError naming its path."""

    @pytest.mark.parametrize("malform", MALFORMED_CHECKPOINTS.values(),
                             ids=MALFORMED_CHECKPOINTS.keys())
    def test_malformed_checkpoint_names_the_path(self, tmp_path, malform):
        path = tmp_path / "m.ckpt"
        harness.save_checkpoint(tiny_rec_model(), path)
        _write_checkpoint(path, *malform(*_read_checkpoint(path)))
        with pytest.raises(harness.CheckpointError, match=re.escape(str(path))):
            harness.load_checkpoint(path)

    @settings(max_examples=80, deadline=None)
    @given(where=st.sampled_from(["header", "top", "config", "tensor", "payload"]),
           key=st.integers(0, 20), value=json_values, cut=st.integers(-9, 9))
    def test_fuzzed_checkpoint_loads_or_names_the_path(self, where, key, value, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            harness.save_checkpoint(tiny_rec_model(), path)
            header, payload = _read_checkpoint(path)
            if where == "header":
                header = value
            elif where == "payload":
                payload = payload[:cut] if cut < 0 else payload + bytes(cut)
            else:
                target = {"top": header, "config": header["config"],
                          "tensor": header["tensors"][sorted(header["tensors"])[0]]}[where]
                names = sorted(target) + ["extra"]
                target[names[key % len(names)]] = value
            _write_checkpoint(path, header, payload)
            try:
                model = harness.load_checkpoint(path)
            except harness.CheckpointError as exc:
                assert str(path) in str(exc)
                return
            # a checkpoint that loads is read whole: saving it gives back its payload
            resaved = Path(tmp) / "again.ckpt"
            harness.save_checkpoint(model, resaved)
            assert _read_checkpoint(resaved)[1] == payload


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


def _experiment_config(stage):
    """An ExperimentConfig builder that takes `fit`'s fields for one stage
    ("cae" or "rec") by the stage config's names."""
    names = {"learning_rate": f"{stage}_lr", "patience": f"{stage}_patience",
             "max_epochs": f"{stage}_max_epochs"}
    return lambda **kw: harness.ExperimentConfig(
        "data", "out", **{names[k]: v for k, v in kw.items()})


# each config that `nn.check_fit_config` checks, built from `fit`'s field names
FIT_CONFIGS = {
    "CaeConfig": CaeConfig,
    "RecConfig": lambda **kw: RecConfig(n_users=1, n_restaurants=1, image_feature_dim=1, **kw),
    "ExperimentConfig-cae": _experiment_config("cae"),
    "ExperimentConfig-rec": _experiment_config("rec"),
}


class TestConfigAndReport:

    @pytest.mark.parametrize("build", FIT_CONFIGS.values(), ids=FIT_CONFIGS)
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -0.01), ("learning_rate", float("inf")),
        ("learning_rate", float("nan")), ("patience", 0), ("max_epochs", 0)])
    def test_fit_values_are_checked_when_the_config_is_built(self, build, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*, got {value}"):
            build(**{field: value})

    def test_cae_source_takes_only_the_code_length_as_feature_dim(self, tmp_path):
        dirs = dict(data_dir=str(tmp_path), out_dir=str(tmp_path))
        with pytest.raises(ValueError, match="image_feature_dim 12 differs from the "
                                             "autoencoder's code length 48"):
            harness.ExperimentConfig(**dirs, image_feature_dim=12)
        assert harness.ExperimentConfig(**dirs, image_feature_dim=48).image_feature_dim == 48

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
    with single_class_validation():
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
        loaded = json.loads((out_dir / "report.json").read_text())
        assert loaded == report.to_dict()

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

    def test_stop_iteration_is_a_stage_error(self):
        walls = {}
        with pytest.raises(harness.StageError) as err:
            with harness._stage("features", walls):
                next(iter({}))
        assert err.value.stage == "features"
        assert isinstance(err.value.cause, StopIteration)
        assert walls == {}

    def test_stage_records_its_wall_time(self):
        walls = {}
        with harness._stage("split", walls):
            pass
        assert set(walls) == {"split"} and walls["split"] >= 0.0

    def test_rerun_metrics_identical(self, synth_dirs, tmp_path):
        data_dir, _, config, report = synth_dirs
        from dataclasses import replace
        with single_class_validation():
            rerun = harness.run_experiment(replace(config, out_dir=str(tmp_path / "out2")))
        assert rerun.to_dict()["metrics"] == report.to_dict()["metrics"]

    def test_feature_file_source_reuses_extraction(self, synth_dirs, tmp_path):
        data_dir, out_dir, config, report = synth_dirs
        from dataclasses import replace
        reuse = replace(config, out_dir=str(tmp_path / "out3"),
                        feature_source="feature-file",
                        feature_file=str(out_dir / "features.txt"))
        with single_class_validation():
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
        # the feature file rejects nan itself; the largest finite float32 loads and
        # overflows to inf in the image projection, which batch norm turns into nan
        features[train_ref] = np.full_like(features[train_ref], np.finfo(np.float32).max)
        save_feature_file(features, tmp_path / "nan.txt")
        with pytest.raises(harness.StageError) as err, \
                pytest.warns(RuntimeWarning, match="overflow|invalid value") as caught:
            harness.run_experiment(replace(config, out_dir=str(tmp_path / "nan"),
                                           feature_source="feature-file",
                                           feature_file=str(tmp_path / "nan.txt")))
        assert any("overflow" in str(w.message) for w in caught)
        assert err.value.stage == "train-rec"
        assert "epoch 1: non-finite train loss" in str(err.value)

    def test_nan_in_feature_file_is_a_features_stage_error(self, synth_dirs, tmp_path):
        _, out_dir, config, _ = synth_dirs
        from dataclasses import replace
        lines = (out_dir / "features.txt").read_text().splitlines()
        key, *values = lines[1].split()
        lines[1] = " ".join([key, "nan", *values[1:]])
        (tmp_path / "nan.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(harness.StageError) as err:
            harness.run_experiment(replace(config, out_dir=str(tmp_path / "nan"),
                                           feature_source="feature-file",
                                           feature_file=str(tmp_path / "nan.txt")))
        assert err.value.stage == "features"
        assert f"{tmp_path / 'nan.txt'}:2:" in str(err.value)

    def test_ablation_runs_both_variants(self, synth_dirs, tmp_path):
        data_dir, _, config, _ = synth_dirs
        from dataclasses import replace
        with single_class_validation():
            result = harness.run_ablation(replace(config, out_dir=str(tmp_path / "abl")))
        assert set(result["variants"]) == {"1", "2"}
        table = result["table"]
        for label in ("Sens.", "Spec.", "Precision", "F1-Score", "B-Score"):
            assert label in table
        assert "1RB" in table and "2RB" in table
        assert (tmp_path / "abl" / "rec_1rb.ckpt").exists()
        assert (tmp_path / "abl" / "rec_2rb.ckpt").exists()


# sha256 of one small fixed-seed `run_experiment` per feature source: the report's
# metrics, the split, the augmented split, the feature file and the checkpoints.
# A change that claims to keep the numerics passes these unedited; one that moves
# them re-pins and names the old and new digests. This build's BLAS and numpy
# enter the bytes.
GOLDEN_RUN_SHA256 = {
    "cae": "340acf1262dac57b7be32f6dea5641a478ac671dd4dc48e21fbf480cf2cce1c6",
    "random-projection": "cd1b567806fb11176153c0899bf571ad1704e94a2bd84317f2dd97c86ccd912a",
}
GOLDEN_RUN_ARTIFACTS = {
    "cae": ("split.jsonl", "augmented_split.jsonl", "features.txt", "cae.ckpt", "rec.ckpt"),
    "random-projection": ("split.jsonl", "augmented_split.jsonl", "features.txt", "rec.ckpt"),
}


class TestGoldenRun:

    @pytest.mark.parametrize("source", sorted(GOLDEN_RUN_SHA256))
    def test_run_outputs_are_pinned(self, source, tmp_path):
        # eight one-image reviews per user, so the validation partition holds both
        # classes; images stored at twice the model size, so every load resizes
        generate_synthetic(SynthConfig(n_users=24, n_restaurants=6, reviews_per_user=(8, 8),
                                       images_per_review=(1, 1), image_size=32, seed=5),
                           tmp_path / "data")
        config = harness.ExperimentConfig(
            data_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "out"), image_size=16,
            seed=5, feature_source=source, cae_max_epochs=2, cae_patience=2,
            rec_max_epochs=3, rec_patience=3, embed_dim=8,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = harness.run_experiment(config)
        digest = hashlib.sha256(json.dumps(report.to_dict()["metrics"], sort_keys=True).encode())
        for name in GOLDEN_RUN_ARTIFACTS[source]:
            digest.update(name.encode() + b"\0" + (tmp_path / "out" / name).read_bytes())
        assert digest.hexdigest() == GOLDEN_RUN_SHA256[source]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """A synthetic dataset and one `platerec run` over it, through the CLI."""
    data = tmp_path_factory.mktemp("cli-data")
    out = tmp_path_factory.mktemp("cli-run")
    assert cli.main(["synth", "--users", "20", "--size", "16", "--seed", "3",
                     "--out", str(data)]) == 0
    with single_class_validation():
        assert cli.main(["run", "--data", str(data), "--out", str(out), "--size", "16",
                         "--seed", "3", "--embed", "16", "--cae-max-epochs", "2",
                         "--max-epochs", "5"]) == 0
    return data, out


class TestCli:

    def test_staged_commands_match_run(self, cli_run, tmp_path):
        data, run_out = cli_run
        out = tmp_path / "staged"
        with single_class_validation():  # from train-rec
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

    def test_train_cae_reads_only_train_and_validation_images(self, cli_run, tmp_path,
                                                             monkeypatch):
        data, run_out = cli_run
        read = []
        load_resized = harness._load_resized

        def recording(path, roots, size):
            read.append(path)
            return load_resized(path, roots, size)

        monkeypatch.setattr(harness, "_load_resized", recording)
        out = tmp_path / "cae"
        assert cli.main(["train-cae", "--split", str(run_out), "--data", str(data),
                         "--size", "16", "--max-epochs", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        rows = load_split(run_out / "split.jsonl").rows
        assert sorted(read) == sorted(r.image_path for r in rows if r.partition != "test")
        assert not {r.image_path for r in rows if r.partition == "test"} & set(read)
        assert (out / "cae.ckpt").read_bytes() == (run_out / "cae.ckpt").read_bytes()

    def test_evaluate_train_matches_report(self, cli_run, capsys):
        _, out = cli_run
        train = json.loads((out / "report.json").read_text())["metrics"]["train"]
        train = MetricsReport(**{**train, "counts": ConfusionCounts(**train["counts"])})
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
        with single_class_validation():
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


class _Captured(Exception):
    """Raised by a stubbed entry point once it has recorded its arguments."""


def _capture(monkeypatch, module, name):
    """Replace `module.name` with a stub that records each call's arguments and
    stops the command; the command then fails, so `cli.main` returns 1."""
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Captured

    monkeypatch.setattr(module, name, stub)
    return calls


def _handed(monkeypatch, module, name, argv):
    """The positional arguments `cli.main(argv)` hands to `module.name`."""
    calls = _capture(monkeypatch, module, name)
    assert cli.main(argv) == 1
    assert len(calls) == 1
    return calls[0]


def _split_sizes(run_out):
    """(n_users, n_restaurants, image_feature_dim) of a run's augmented split."""
    split = load_split(run_out / "augmented_split.jsonl")
    features = load_feature_file(run_out / "features.txt")
    return (len(split.user_index), len(split.restaurant_index),
            len(next(iter(features.values()))))


class TestCliConfigs:
    """The config each command hands to its entry point: the dataclass's defaults
    when only the required flags are given, and each flag's value otherwise."""

    def test_synth(self, tmp_path, monkeypatch):
        from platerec import data
        out = str(tmp_path / "data")
        (config, where), _ = _handed(monkeypatch, data, "generate_synthetic",
                                     ["synth", "--out", out])
        assert (config, where) == (SynthConfig(), out)
        (config, _), _ = _handed(monkeypatch, data, "generate_synthetic", [
            "synth", "--users", "7", "--restaurants", "3", "--ratio", "2.5",
            "--signal", "0.5", "--size", "16", "--seed", "9", "--out", out])
        assert config == SynthConfig(n_users=7, n_restaurants=3, target_ratio=2.5,
                                     signal_strength=0.5, image_size=16, seed=9)

    def test_train_cae(self, cli_run, tmp_path, monkeypatch):
        data, run_out = cli_run
        required = ["train-cae", "--split", str(run_out), "--data", str(data),
                    "--out", str(tmp_path)]
        (_, images, config, _), _ = _handed(monkeypatch, harness, "fit_cae", required)
        assert config == CaeConfig()
        assert {img.shape for img in images.values()} == {(32, 32, 3)}
        (_, images, config, _), _ = _handed(monkeypatch, harness, "fit_cae", required + [
            "--size", "16", "--loss", "mse", "--batch", "8", "--patience", "3",
            "--max-epochs", "4", "--lr", "0.01", "--seed", "5"])
        assert config == CaeConfig(input_height=16, input_width=16, loss_kind="mse",
                                   batch_size=8, patience=3, max_epochs=4,
                                   learning_rate=0.01, seed=5)
        assert {img.shape for img in images.values()} == {(16, 16, 3)}

    def test_train_rec(self, cli_run, tmp_path, monkeypatch):
        _, run_out = cli_run
        sizes = _split_sizes(run_out)
        required = ["train-rec", "--features", str(run_out / "features.txt"),
                    "--split", str(run_out), "--out", str(tmp_path)]
        (_, _, config), _ = _handed(monkeypatch, harness, "train_classifier", required)
        assert config == RecConfig(*sizes)
        (_, _, config), _ = _handed(monkeypatch, harness, "train_classifier", required + [
            "--embed", "32", "--lr", "0.01", "--reduce-blocks", "1", "--batch", "8",
            "--patience", "3", "--max-epochs", "4", "--threshold", "0.4", "--seed", "5"])
        assert config == RecConfig(*sizes, embed_dim=32, learning_rate=0.01,
                                   n_reduce_blocks=1, batch_size=8, patience=3,
                                   max_epochs=4, decision_threshold=0.4, seed=5)

    @staticmethod
    def _grid_configs(call):
        """The config of every grid point, as `recmodel.grid_search` derives them."""
        (_, _, lrs, embeds, base), kwargs = call
        return [replace(base, learning_rate=lr, embed_dim=embed, patience=kwargs["patience"])
                for lr, embed in itertools.product(lrs, embeds)]

    def test_grid_search(self, cli_run, monkeypatch):
        from platerec import recmodel
        _, run_out = cli_run
        sizes = _split_sizes(run_out)
        required = ["grid-search", "--features", str(run_out / "features.txt"),
                    "--split", str(run_out)]
        call = _handed(monkeypatch, recmodel, "grid_search", required)
        assert self._grid_configs(call) == [
            RecConfig(*sizes, learning_rate=lr, embed_dim=embed, patience=6)
            for lr in (0.001, 0.0001) for embed in (128, 256, 512)]
        call = _handed(monkeypatch, recmodel, "grid_search", required + [
            "--lr", "0.01,0.02", "--embed", "8,16", "--patience", "3", "--batch", "8",
            "--max-epochs", "4", "--seed", "5"])
        assert self._grid_configs(call) == [
            RecConfig(*sizes, learning_rate=lr, embed_dim=embed, patience=3,
                      batch_size=8, max_epochs=4, seed=5)
            for lr in (0.01, 0.02) for embed in (8, 16)]

    # every flag `run` and `ablation` shared before the flags came from the fields
    EXPERIMENT_FLAGS = ["--size", "16", "--seed", "5", "--feature-source", "feature-file",
                        "--feature-file", "f.txt", "--feature-dim", "12",
                        "--cae-max-epochs", "3", "--embed", "8", "--lr", "0.01",
                        "--patience", "4", "--max-epochs", "5", "--threshold", "0.4"]
    EXPERIMENT_VALUES = dict(image_size=16, seed=5, feature_source="feature-file",
                             feature_file="f.txt", image_feature_dim=12, cae_max_epochs=3,
                             embed_dim=8, rec_lr=0.01, rec_patience=4, rec_max_epochs=5,
                             threshold=0.4)

    def test_run(self, tmp_path, monkeypatch):
        dirs = dict(data_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "out"))
        required = ["run", "--data", dirs["data_dir"], "--out", dirs["out_dir"]]
        (config,), _ = _handed(monkeypatch, harness, "run_experiment", required)
        assert config == harness.ExperimentConfig(**dirs)
        (config,), _ = _handed(monkeypatch, harness, "run_experiment",
                               required + self.EXPERIMENT_FLAGS)
        assert config == harness.ExperimentConfig(**dirs, **self.EXPERIMENT_VALUES)

    def test_ablation(self, tmp_path, monkeypatch):
        dirs = dict(data_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "out"))
        required = ["ablation", "--data", dirs["data_dir"], "--out", dirs["out_dir"]]
        args, _ = _handed(monkeypatch, harness, "run_ablation", required)
        assert args == (harness.ExperimentConfig(**dirs), (1, 2))
        args, _ = _handed(monkeypatch, harness, "run_ablation",
                          required + self.EXPERIMENT_FLAGS + ["--reduce-blocks", "2"])
        assert args == (harness.ExperimentConfig(**dirs, **self.EXPERIMENT_VALUES), (2,))


class TestCliEndToEnd:
    """The two commands no other test runs, on the `cli_run` data at tiny epochs."""

    def test_grid_search(self, cli_run, tmp_path, capsys):
        _, run_out = cli_run
        out = tmp_path / "grid.json"
        capsys.readouterr()
        with single_class_validation():
            assert cli.main(["grid-search", "--features", str(run_out / "features.txt"),
                             "--split", str(run_out), "--lr", "0.01,0.001", "--embed", "8",
                             "--max-epochs", "2", "--seed", "3", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert [(row["lr"], row["embed_dim"]) for row in result["rows"]] == [
            (0.01, 8), (0.001, 8)]
        assert result["best"]["embed_dim"] == 8 and result["best"]["lr"] in (0.01, 0.001)
        assert f"best: lr={result['best']['lr']:g} embed=8" in capsys.readouterr().out

    def test_ablation(self, cli_run, tmp_path, capsys):
        data, _ = cli_run
        out = tmp_path / "abl"
        capsys.readouterr()
        with single_class_validation():
            assert cli.main(["ablation", "--data", str(data), "--out", str(out),
                             "--size", "16", "--seed", "3", "--embed", "8",
                             "--feature-source", "random-projection",
                             "--max-epochs", "2"]) == 0
        table = (out / "ablation.txt").read_text()
        assert "1RB" in table and "2RB" in table
        assert capsys.readouterr().out == table
        assert (out / "rec_1rb.ckpt").exists() and (out / "rec_2rb.ckpt").exists()


def _subcommands():
    """Every subcommand name of the parser."""
    parser = cli.build_parser()
    return sorted(next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices)


class TestCliFlags:
    """Flags built from the config dataclasses' fields."""

    @pytest.mark.parametrize("command", _subcommands())
    def test_help_exits_cleanly(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main([command, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: platerec {command}")

    def test_run_sets_every_experiment_field(self, tmp_path, monkeypatch):
        values = dict(
            data_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "out"), image_size=16,
            seed=5, feature_source="feature-file", feature_file="f.txt", image_feature_dim=12,
            cae_loss="mse", cae_lr=0.01, cae_batch=8, cae_patience=3, cae_max_epochs=4,
            embed_dim=8, n_reduce_blocks=1, rec_lr=0.02, rec_batch=16, rec_patience=5,
            rec_max_epochs=6, threshold=0.4,
        )
        assert list(values) == [f.name for f in fields(harness.ExperimentConfig)]
        defaults = harness.ExperimentConfig(values["data_dir"], values["out_dir"])
        assert all(getattr(defaults, k) != v for k, v in values.items() if not k.endswith("_dir"))
        argv = ["run", "--data", values["data_dir"], "--out", values["out_dir"],
                "--size", "16", "--seed", "5", "--feature-source", "feature-file",
                "--feature-file", "f.txt", "--feature-dim", "12", "--cae-loss", "mse",
                "--cae-lr", "0.01", "--cae-batch", "8", "--cae-patience", "3",
                "--cae-max-epochs", "4", "--embed", "8", "--reduce-blocks", "1",
                "--lr", "0.02", "--rec-batch", "16", "--patience", "5", "--max-epochs", "6",
                "--threshold", "0.4"]
        (config,), _ = _handed(monkeypatch, harness, "run_experiment", argv)
        assert config == harness.ExperimentConfig(**values)

    def test_bad_values_name_the_stage_and_the_value(self, cli_run, tmp_path, capsys):
        data, run_out = cli_run
        for stage, argv, value in (
            ("run", ["run", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--feature-source", "resnet"], "'resnet'"),
            ("train-cae", ["train-cae", "--split", str(run_out), "--data", str(data),
                           "--out", str(tmp_path / "cae"), "--loss", "huber"], "'huber'"),
            ("train-rec", ["train-rec", "--features", str(run_out / "features.txt"),
                           "--split", str(run_out), "--out", str(tmp_path / "rec"),
                           "--reduce-blocks", "3"], "got 3"),
        ):
            capsys.readouterr()
            assert cli.main(argv) == 1, stage
            err = capsys.readouterr().err
            assert f"stage {stage!r} failed" in err and value in err, err

    @pytest.mark.parametrize("argv, value", [
        (["run", "--reduce-blocks", "3"], "got 3"),
        (["run", "--cae-loss", "huber"], "'huber'"),
        (["ablation", "--reduce-blocks", "1,3"], "got 3"),
        (["run", "--feature-source", "random-projection", "--feature-dim", "0"],
         "image_feature_dim must be positive, got 0"),
        (["run", "--feature-source", "random-projection", "--feature-dim", "-5"],
         "image_feature_dim must be positive, got -5"),
        (["run", "--feature-dim", "48"],
         "image_feature_dim 48 differs from the autoencoder's code length 12"),
        (["run", "--lr", "-1"], "learning_rate must be finite and > 0, got -1.0"),
        (["run", "--cae-lr", "nan"], "learning_rate must be finite and > 0, got nan"),
        (["run", "--patience", "0"], "patience must be >= 1, got 0"),
        (["run", "--cae-max-epochs", "0"], "max_epochs must be >= 1, got 0"),
    ], ids=["run-reduce-blocks", "run-cae-loss", "ablation-reduce-blocks",
            "run-feature-dim-0", "run-feature-dim-negative", "run-feature-dim-cae",
            "run-lr-negative", "run-cae-lr-nan", "run-patience-0", "run-cae-max-epochs-0"])
    def test_stage_values_are_checked_before_any_stage_runs(self, cli_run, tmp_path,
                                                            capsys, argv, value):
        data, _ = cli_run
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(argv + ["--data", str(data), "--out", str(out), "--size", "16"]) == 1
        err = capsys.readouterr().err
        assert f"stage {argv[0]!r} failed" in err and value in err, err
        assert not (out / "split.jsonl").exists()

    def test_import_leaves_scipy_unloaded(self):
        import platerec
        src = str(Path(platerec.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", "import sys, platerec.cli; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert run.stdout.strip() == "False"

    def test_a_run_with_scipy_blocked_augments_with_every_transform(self, tmp_path):
        import platerec
        src = str(Path(platerec.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        data, out = tmp_path / "data", tmp_path / "out"
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from platerec import cli\n"
            f"assert cli.main(['synth', '--users', '12', '--size', '16', '--seed', '3',"
            f" '--out', {str(data)!r}]) == 0\n"
            f"sys.exit(cli.main(['run', '--data', {str(data)!r}, '--out', {str(out)!r},"
            " '--size', '16', '--seed', '3', '--feature-source', 'random-projection',"
            " '--max-epochs', '2']))\n"
        )
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        for origin in ORIGIN_OF_KIND.values():
            assert any((out / "augmented" / origin).rglob("*.ppm")), origin
