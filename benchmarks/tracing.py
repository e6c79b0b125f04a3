"""Span recorder for the traced benchmark run.

The recorder wraps public functions and layer methods of the platerec
modules from outside the program: while a recording is active, module
attributes and class methods are replaced by timing wrappers, and they are
restored when it ends, so untraced passes run the program untouched.

A span is (key, start, end, parent). Spans stay in memory until the run
ends. A span's self time is its duration minus the time its direct
children cover; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import weakref

from platerec import cae, data, harness, metrics, nn, recmodel

PLATEREC_MODULES = (nn, cae, recmodel, data, metrics, harness)

# (module, function name) -> span key. Every platerec module that imported
# the same function object gets the wrapper too.
FUNCTIONS = {
    (nn, "adam_step"): "nn.adam_step",
    (nn, "loss_eval"): "nn.loss_eval",
    (nn, "zero_grads"): "nn.zero_grads",
    (nn, "snapshot_state"): "nn.snapshot_state",
    (nn, "load_state"): "nn.load_state",
    (cae, "build_cae"): "cae.build_cae",
    (cae, "train_cae"): "cae.train_cae",
    (cae, "evaluate_loss"): "cae.evaluate_loss",
    (cae, "encode_images"): "cae.encode_images",
    (recmodel, "build_recommender"): "recmodel.build_recommender",
    (recmodel, "train_recommender"): "recmodel.train_recommender",
    (data, "load_manifest"): "data.load_manifest",
    (data, "three_way_split"): "data.three_way_split",
    (data, "save_split"): "data.save_split",
    (data, "augment_minority"): "data.augment_minority",
    (data, "apply_transform"): "data.apply_transform",
    (data, "read_ppm"): "data.read_ppm",
    (data, "write_ppm"): "data.write_ppm",
    (data, "resize_image"): "data.resize_image",
    (data, "save_feature_file"): "data.save_feature_file",
    (data, "load_feature_file"): "data.load_feature_file",
    (metrics, "compute_metrics"): "metrics.compute_metrics",
    (harness, "run_experiment"): "harness.run_experiment",
    (harness, "prepare_data"): "harness.prepare_data",
    (harness, "materialize_augmentation"): "harness.materialize_augmentation",
    (harness, "random_projection_features"): "harness.random_projection_features",
    (harness, "train_and_evaluate"): "harness.train_and_evaluate",
    (harness, "evaluate_batch"): "harness.evaluate_batch",
    (harness, "triads_to_batch"): "harness.triads_to_batch",
    (harness, "save_checkpoint"): "harness.save_checkpoint",
    (harness, "load_checkpoint"): "harness.load_checkpoint",
    (harness, "write_report"): "harness.write_report",
}

LAYER_CLASSES = (nn.Conv3x3, nn.MaxPool2x2, nn.Upsample2x, nn.BatchNorm, nn.Dense,
                 nn.Embedding, nn.Dropout, nn.ReLU, nn.Sigmoid)
MODEL_CLASSES = ((cae.CaeModel, "cae.CaeModel"), (recmodel.RecModel, "recmodel.RecModel"))

CONV_POSITIONS = [f"enc{i}" for i in range(4)] + [f"dec{i}" for i in range(4)]


class SpanRecorder:
    """Records nested spans while `recording()` is active."""

    def __init__(self):
        self.spans = []          # [key, start, end, parent index]
        self._stack = []
        self.conv_labels = weakref.WeakKeyDictionary()

    def _timed(self, key, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [key, time.perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap_function(self, key, fn):
        if key == "cae.build_cae":
            def wrapper(*args, **kwargs):
                model = self._timed(key, fn, args, kwargs)
                self._label_convs(model)
                return model
        else:
            def wrapper(*args, **kwargs):
                return self._timed(key, fn, args, kwargs)
        return wrapper

    def _label_convs(self, model):
        convs = [layer for seq in (model.encoder, model.decoder)
                 for layer in seq.layers if isinstance(layer, nn.Conv3x3)]
        for label, conv in zip(CONV_POSITIONS, convs):
            self.conv_labels[conv] = label

    def _wrap_method(self, prefix, cls, method, fn):
        phase = "fwd" if method == "forward" else "bwd"
        recorder = self

        if cls is nn.Conv3x3:
            def wrapper(layer, *args, **kwargs):
                label = recorder.conv_labels.get(layer, "unlabeled")
                return recorder._timed(f"{prefix}.{label}.{phase}", fn, (layer,) + args, kwargs)
        elif cls is nn.BatchNorm:
            def wrapper(layer, x, *args, **kwargs):
                kind = "nchw" if x.ndim == 4 else "nf"
                return recorder._timed(f"{prefix}.{kind}.{phase}", fn, (layer, x) + args, kwargs)
        elif method == "forward" and cls in (cae.CaeModel, recmodel.RecModel):
            def wrapper(model, batch, mode=nn.INFERENCE, *args, **kwargs):
                return recorder._timed(f"{prefix}.{phase}.{mode}", fn,
                                       (model, batch, mode) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return recorder._timed(f"{prefix}.{phase}", fn, args, kwargs)
        return wrapper

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers, yield, then restore every original."""
        restore = []
        try:
            for (module, name), key in FUNCTIONS.items():
                original = getattr(module, name)
                wrapper = self._wrap_function(key, original)
                for mod in PLATEREC_MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            methods = [(cls, f"nn.{cls.__name__}") for cls in LAYER_CLASSES]
            methods += list(MODEL_CLASSES)
            for cls, prefix in methods:
                for method in ("forward", "backward"):
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self._wrap_method(prefix, cls, method, original))
            restore.append((recmodel.TriadBatch, "take", recmodel.TriadBatch.take))
            recmodel.TriadBatch.take = self._wrap_function(
                "recmodel.TriadBatch.take", recmodel.TriadBatch.take)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent in self.spans:
                fh.write(json.dumps({"name": key, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    return self_time


def _has_ancestor(spans, index, key_prefix):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(key_prefix):
            return True
        parent = spans[parent][3]
    return False


def _median_ms(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def _train_steps(spans, train_key, forward_key):
    """Durations of training steps: a training-mode model forward up to the end
    of the next adam_step, inside each `train_key` span."""
    steps = []
    start = None
    for index, (key, t0, t1, _) in enumerate(spans):
        if key == forward_key and _has_ancestor(spans, index, train_key):
            start = t0
        elif key == "nn.adam_step" and start is not None:
            steps.append(t1 - start)
            start = None
    return steps


def per_layer_metrics(spans, n_passes, extra):
    """Name -> value for every per-layer metric.

    `_s` metrics are summed self time per traced pass, except the cae,
    recmodel and harness calls that wrap layer calls, which sum their whole
    duration. `.calls` are calls per traced pass; `_ms` metrics are medians
    per call. `extra` carries the numbers that come from the program's own
    reports, its inputs and the process: epoch and stage wall times, the
    number of autoencoder batches its epochs hold, CPU use and tracing
    overhead.
    """
    self_time = _self_times(spans)
    total, inclusive, calls, per_call = {}, {}, {}, {}
    for index, (key, start, end, _) in enumerate(spans):
        total[key] = total.get(key, 0.0) + self_time[index]
        inclusive[key] = inclusive.get(key, 0.0) + end - start
        calls[key] = calls.get(key, 0) + 1
        per_call.setdefault(key, []).append(self_time[index])

    def s(*keys):
        return sum(total.get(k, 0.0) for k in keys) / n_passes

    def incl(key):
        return inclusive.get(key, 0.0) / n_passes

    def c(*keys):
        return sum(calls.get(k, 0) for k in keys) / n_passes

    conv_keys = {phase: [f"nn.Conv3x3.{p}.{phase}" for p in CONV_POSITIONS + ["unlabeled"]]
                 for phase in ("fwd", "bwd")}
    out = {
        "nn.Conv3x3.fwd_s": s(*conv_keys["fwd"]),
        "nn.Conv3x3.bwd_s": s(*conv_keys["bwd"]),
        "nn.Conv3x3.calls": c(*conv_keys["fwd"], *conv_keys["bwd"]),
    }
    for pos in CONV_POSITIONS:
        for phase in ("fwd", "bwd"):
            out[f"nn.Conv3x3.{pos}.{phase}_ms"] = _median_ms(
                per_call.get(f"nn.Conv3x3.{pos}.{phase}", []))
    for layer in ("MaxPool2x2", "Upsample2x", "BatchNorm.nchw", "BatchNorm.nf", "Dense",
                  "Embedding", "Dropout", "ReLU", "Sigmoid"):
        for phase in ("fwd", "bwd"):
            out[f"nn.{layer}.{phase}_s"] = s(f"nn.{layer}.{phase}")
    for fn in ("adam_step", "loss_eval", "zero_grads", "snapshot_state"):
        out[f"nn.{fn}_s"] = s(f"nn.{fn}")
    restored = sum(
        1 for i, span in enumerate(spans)
        if span[0] == "nn.load_state"
        and (_has_ancestor(spans, i, "cae.train_cae")
             or _has_ancestor(spans, i, "recmodel.train_recommender")))
    taken = calls.get("nn.snapshot_state", 0)
    out["nn.snapshot_useful_frac"] = restored / taken if taken else 0.0

    out["cae.train_step_ms"] = _median_ms(
        _train_steps(spans, "cae.train_cae", "cae.CaeModel.fwd.training"))
    out["cae.epoch_s"] = extra.get("cae_epoch_s", 0.0)
    out["cae.evaluate_loss_s"] = incl("cae.evaluate_loss")
    out["cae.encode_images_s"] = incl("cae.encode_images")
    # batches the epochs would hold minus the training steps the program took
    cae_steps = sum(1 for i, span in enumerate(spans)
                    if span[0] == "cae.CaeModel.fwd.training"
                    and _has_ancestor(spans, i, "cae.train_cae"))
    out["cae.batches_skipped"] = extra.get("cae_batches_planned", 0.0) - cae_steps / n_passes

    out["recmodel.train_step_ms"] = _median_ms(
        _train_steps(spans, "recmodel.train_recommender", "recmodel.RecModel.fwd.training"))
    out["recmodel.epoch_s"] = extra.get("rec_epoch_s", 0.0)
    infer = [(i, span) for i, span in enumerate(spans)
             if span[0] == "recmodel.RecModel.fwd.inference"]
    val = [sp[2] - sp[1] for i, sp in infer
           if _has_ancestor(spans, i, "recmodel.train_recommender")]
    served = [sp[2] - sp[1] for i, sp in infer
              if not _has_ancestor(spans, i, "recmodel.train_recommender")
              and not _has_ancestor(spans, i, "harness.")]
    out["recmodel.val_forward_s"] = sum(val) / n_passes
    out["recmodel.take_s"] = incl("recmodel.TriadBatch.take")
    out["recmodel.forward_infer_ms"] = _median_ms(served)

    for fn in ("load_manifest", "three_way_split", "save_split", "augment_minority"):
        out[f"data.{fn}_s"] = s(f"data.{fn}")
    for fn in ("apply_transform", "read_ppm", "write_ppm", "resize_image"):
        out[f"data.{fn}_s"] = s(f"data.{fn}")
        out[f"data.{fn}.calls"] = c(f"data.{fn}")
    for fn in ("save_feature_file", "load_feature_file"):
        out[f"data.{fn}_s"] = s(f"data.{fn}")

    out["metrics.compute_metrics_s"] = s("metrics.compute_metrics")
    out["metrics.compute_metrics.calls"] = c("metrics.compute_metrics")

    for stage in ("split", "augment", "load-images", "features", "train-rec"):
        out[f"harness.stage.{stage}_s"] = extra.get("stage_s", {}).get(stage, 0.0)
    for fn in ("save_checkpoint", "load_checkpoint", "triads_to_batch"):
        out[f"harness.{fn}_s"] = incl(f"harness.{fn}")

    out["proc.cpu_util"] = extra["cpu_util"]
    out["trace.overhead_frac"] = extra["overhead_frac"]
    return out


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name == "cae.batches_skipped":
        return "count"
    return "ratio"
