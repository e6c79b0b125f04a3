"""The traced benchmark's span recorder (`benchmarks/tracing.py`) against the
program: every name it wraps still exists, training and encoding run under
it, and it puts back every attribute it replaced. The recorder is read as a
file and not changed."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from platerec import cae, nn, recmodel

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing",
                                                  ROOT / "benchmarks" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def patchable(tracing):
    """(owner, attribute) -> value of everything a recording may replace."""
    out = {(mod, attr): value for mod in tracing.PLATEREC_MODULES
           for attr, value in vars(mod).items()}
    classes = list(tracing.LAYER_CLASSES) + [cls for cls, _ in tracing.MODEL_CLASSES]
    out.update({(cls, method): cls.__dict__[method]
                for cls in classes for method in ("forward", "backward")})
    out[recmodel.TriadBatch, "take"] = recmodel.TriadBatch.__dict__["take"]
    return out


def triads(cfg, n, seed):
    rng = nn.make_rng(seed, "traced-triads")
    return recmodel.TriadBatch(
        users=rng.integers(0, cfg.n_users, size=n),
        restaurants=rng.integers(0, cfg.n_restaurants, size=n),
        features=rng.normal(size=(n, cfg.image_feature_dim)).astype(np.float32),
        labels=np.arange(n) % 2)


def test_recording_wraps_training_and_encoding_and_restores_everything():
    tracing = load_tracing()
    before = patchable(tracing)
    recorder = tracing.SpanRecorder()
    with recorder.recording():
        assert nn.adam_step is not before[nn, "adam_step"]
        rec_cfg = recmodel.RecConfig(n_users=4, n_restaurants=3, image_feature_dim=6,
                                     embed_dim=8, batch_size=4, max_epochs=1, seed=1)
        recmodel.train_recommender(recmodel.build_recommender(rec_cfg),
                                   triads(rec_cfg, 8, 1), triads(rec_cfg, 4, 2), rec_cfg)
        cae_cfg = cae.CaeConfig(input_height=8, input_width=8, batch_size=4, max_epochs=1,
                                seed=1)
        images = list(nn.make_rng(1, "traced-images").random((8, 8, 8, 3)).astype(np.float32))
        model = cae.build_cae(cae_cfg)
        cae.train_cae(model, images[:6], images[6:], cae_cfg)
        cae.encode_images(model, images)
    after = patchable(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    keys = {span[0] for span in recorder.spans}
    assert {"nn.Dense.bwd", "nn.Conv3x3.enc0.bwd", "nn.adam_step"} <= keys
    metrics = tracing.per_layer_metrics(recorder.spans, 1, {"cpu_util": 1.0,
                                                            "overhead_frac": 0.0})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
