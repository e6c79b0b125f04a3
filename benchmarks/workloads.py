"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload is a closed loop with one client: the runner calls `run` for
one pass, checks its outputs with `check` outside the timed region, and
starts the next pass after that. Inputs come only from the seed through
`data.generate_synthetic`; the program sees the generated files and an
`ExperimentConfig`, never the workload's name.

Every generated user writes eight reviews of one image each, so the
amount of work per pass is the same for every seed and `run_s` can be
compared across seeds; only the split and the augmented share move. Eight
reviews per user, rather than the generator's default two to four, give
every seed negative reviews in both held-out partitions: with fewer, the
validation partition is often all positive, its B-score is vacuous, and
the classifier that training keeps is the one from epoch 1.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from platerec import cae, data, harness, nn, recmodel

MODEL_SIZE = 32
CODE_LENGTH = cae.CaeConfig(input_height=MODEL_SIZE, input_width=MODEL_SIZE).code_length
N_RESTAURANTS = 15
REVIEWS_PER_USER = 8


def synth_config(seed, n_users, image_size):
    """Shaped like the acceptance data: 15 restaurants, ratio 6, signal 0.8."""
    return data.SynthConfig(
        n_users=n_users, n_restaurants=N_RESTAURANTS,
        reviews_per_user=(REVIEWS_PER_USER, REVIEWS_PER_USER), images_per_review=(1, 1),
        target_ratio=6.0, signal_strength=0.8,
        image_size=image_size, seed=seed,
    )


@dataclass
class PassOutcome:
    """What one pass did: operations attempted and failed, and its figures."""
    ops: int
    failed: int = 0
    messages: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    digest: str | None = None


def _file_sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite_list(values, length):
    return len(values) == length and all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# Pipelines: harness.run_experiment, one operation per pass
# ---------------------------------------------------------------------------

class Pipeline:
    """One pass is one `run_experiment` call on the set-up data."""

    def __init__(self, n_users, image_size, **config):
        self.n_users = n_users
        self.image_size = image_size
        self.config = config

    def setup(self, work_dir, seed):
        data_dir = Path(work_dir) / "data"
        data.generate_synthetic(synth_config(seed, self.n_users, self.image_size), data_dir)
        return {"data_dir": data_dir, "seed": seed}

    def experiment_config(self, ctx, out_dir):
        return harness.ExperimentConfig(
            data_dir=str(ctx["data_dir"]), out_dir=str(out_dir), image_size=MODEL_SIZE,
            seed=ctx["seed"], **self.config)

    def run(self, ctx, out_dir):
        return harness.run_experiment(self.experiment_config(ctx, out_dir))

    def ops_per_pass(self, ctx):
        return 1

    def check(self, ctx, report, out_dir):
        config = self.experiment_config(ctx, out_dir)
        out_dir = Path(out_dir)
        messages = []
        uses_cae = config.feature_source == "cae"

        histories = [("rec_history", report.rec_history,
                      ("train_loss", "val_b_score", "wall_time"), config.rec_max_epochs)]
        if uses_cae:
            histories.append(("cae_history", report.cae_history,
                              ("train_loss", "val_loss", "wall_time"), config.cae_max_epochs))
        for label, history, keys, epochs in histories:
            for key in keys:
                if not _finite_list(history[key], epochs):
                    messages.append(f"{label}.{key} is not {epochs} finite values")

        features = data.load_feature_file(out_dir / "features.txt")
        full_split = data.load_split(out_dir / "augmented_split.jsonl")
        image_paths = sorted({row.image_path for row in full_split.rows})
        if sorted(features) != image_paths:
            messages.append("feature file rows differ from the split's images")
        if any(len(v) != CODE_LENGTH for v in features.values()):
            messages.append(f"feature vectors are not {CODE_LENGTH} long")

        checkpoints = ["rec.ckpt"] + (["cae.ckpt"] if uses_cae else [])
        for name in checkpoints:
            model = harness.load_checkpoint(out_dir / name)
            harness.save_checkpoint(model, out_dir / f"resaved-{name}")
            if (out_dir / name).read_bytes() != (out_dir / f"resaved-{name}").read_bytes():
                messages.append(f"{name} does not reload bit-exactly")
            elif name == "rec.ckpt":
                batch = harness.triads_to_batch(full_split.triads("test"), features)
                again = harness.evaluate_batch(model, batch, config.threshold)
                if again.to_dict() != report.metrics["test"].to_dict():
                    messages.append("reloaded rec.ckpt scores the test partition differently")
            elif name == "cae.ckpt":
                first = image_paths[:64]
                codes = cae.encode_images(model, [self._image(ctx, out_dir, p) for p in first])
                if not np.array_equal(codes, np.stack([features[p] for p in first])):
                    messages.append("reloaded cae.ckpt does not reproduce the feature file")

        split = data.load_split(out_dir / "split.jsonl")
        n_cae_train = len(split.rows_in("train"))
        n_triads = len(full_split.rows_in("train"))
        rec_walls = report.rec_history["wall_time"]
        values = {
            "rec_train_triads_per_s": n_triads * len(rec_walls) / sum(rec_walls),
            "test_b_score": report.metrics["test"].b_score if "test" in report.metrics else None,
            "rec_epoch_s": float(np.median(rec_walls)),
            "stage_s": dict(report.wall_times),
        }
        if uses_cae:
            cae_walls = report.cae_history["wall_time"]
            best = report.cae_history["best_epoch"]
            values.update({
                "cae_train_img_per_s": n_cae_train * len(cae_walls) / sum(cae_walls),
                "cae_val_loss": report.cae_history["val_loss"][best - 1],
                "cae_epoch_s": float(np.median(cae_walls)),
                "cae_batches_planned": len(cae_walls) * -(-n_cae_train // config.cae_batch),
            })

        digest = hashlib.sha256(json.dumps({
            "metrics": report.to_dict()["metrics"],
            "rec": [report.rec_history[k] for k in ("train_loss", "val_b_score")],
            "cae": ([report.cae_history[k] for k in ("train_loss", "val_loss")]
                    if uses_cae else None),
            "files": [_file_sha(out_dir / n) for n in checkpoints + ["features.txt"]],
        }, sort_keys=True).encode()).hexdigest()
        return PassOutcome(ops=1, failed=int(bool(messages)), messages=messages,
                           values=values, digest=digest)

    @staticmethod
    def _image(ctx, out_dir, path):
        """An image as the harness loads it: stored, or written by augmentation."""
        root = ctx["data_dir"] if (ctx["data_dir"] / path).exists() else out_dir
        img = data.read_ppm(root / path)
        if img.shape[:2] != (MODEL_SIZE, MODEL_SIZE):
            img = data.resize_image(img, MODEL_SIZE, MODEL_SIZE)
        return img


# ---------------------------------------------------------------------------
# Rank: inference from checkpoints, many operations per pass
# ---------------------------------------------------------------------------

class Rank:
    """Load both checkpoints, encode the corpus, then serve rank requests."""

    n_users = 52
    image_size = 64
    embed_dim = 512
    encode_batch = 64
    requests_per_pass = 50
    top_k = 10
    code_tolerance = 1e-4    # batch code vs one-image code, relative to 1 + |code|
    score_tolerance = 1e-5   # batch probability vs recmodel.predict, absolute

    def setup(self, work_dir, seed):
        work_dir = Path(work_dir)
        data_dir = work_dir / "data"
        _, records = data.generate_synthetic(
            synth_config(seed, self.n_users, self.image_size), data_dir)
        n_users = len({r.user_id for r in records})
        cae_model = cae.build_cae(cae.CaeConfig(
            input_height=MODEL_SIZE, input_width=MODEL_SIZE, seed=seed))
        rec_model = recmodel.build_recommender(recmodel.RecConfig(
            n_users=n_users, n_restaurants=N_RESTAURANTS, image_feature_dim=CODE_LENGTH,
            embed_dim=self.embed_dim, seed=seed))
        harness.save_checkpoint(cae_model, work_dir / "cae.ckpt")
        harness.save_checkpoint(rec_model, work_dir / "rec.ckpt")
        users = nn.make_rng(seed, "bench-rank-requests").integers(
            n_users, size=self.requests_per_pass)
        return {"work_dir": work_dir, "data_dir": data_dir, "users": users,
                "n_images": sum(len(r.image_paths) for r in records),
                "sample_rng": nn.make_rng(seed, "bench-rank-sample")}

    def ops_per_pass(self, ctx):
        return -(-ctx["n_images"] // self.encode_batch) + self.requests_per_pass

    def run(self, ctx, out_dir):
        cae_model = harness.load_checkpoint(ctx["work_dir"] / "cae.ckpt")
        rec_model = harness.load_checkpoint(ctx["work_dir"] / "rec.ckpt")
        reviews = data.load_manifest(ctx["data_dir"] / "manifest.jsonl")
        rest_index = {r: i for i, r in enumerate(sorted({rv.restaurant_id for rv in reviews}))}
        paths = [p for rv in reviews for p in rv.image_paths]
        restaurants = np.array([rest_index[rv.restaurant_id]
                                for rv in reviews for _ in rv.image_paths])

        t0 = time.perf_counter()
        code_batches = []
        for start in range(0, len(paths), self.encode_batch):
            images = [data.resize_image(data.read_ppm(ctx["data_dir"] / p), MODEL_SIZE, MODEL_SIZE)
                      for p in paths[start:start + self.encode_batch]]
            code_batches.append(cae.encode_images(cae_model, images, batch_size=self.encode_batch))
        encode_s = time.perf_counter() - t0
        codes = np.concatenate(code_batches)

        labels = np.zeros(len(paths), dtype=np.int64)
        latencies, scores, tops = [], [], []
        for user in ctx["users"]:
            t0 = time.perf_counter()
            batch = recmodel.TriadBatch(users=np.full(len(paths), user),
                                        restaurants=restaurants, features=codes, labels=labels)
            probs = rec_model.forward(batch, mode=nn.INFERENCE)
            top = np.argpartition(-probs, self.top_k)[:self.top_k]
            top = top[np.argsort(-probs[top], kind="stable")]
            latencies.append(time.perf_counter() - t0)
            scores.append(probs)
            tops.append(top)
        return {"cae": cae_model, "rec": rec_model, "paths": paths, "restaurants": restaurants,
                "code_batches": code_batches, "encode_s": encode_s,
                "latencies": latencies, "scores": scores, "tops": tops}

    def check(self, ctx, out, out_dir):
        messages = []
        rng = ctx["sample_rng"]
        failed_batches = set()
        for b, codes in enumerate(out["code_batches"]):
            if codes.shape[1] != CODE_LENGTH or not np.isfinite(codes).all():
                failed_batches.add(b)
                messages.append(f"encode batch {b}: codes not finite or not {CODE_LENGTH} long")
        for i in rng.choice(len(out["paths"]), size=2, replace=False):
            b, row = divmod(int(i), self.encode_batch)
            image = data.resize_image(data.read_ppm(ctx["data_dir"] / out["paths"][i]),
                                      MODEL_SIZE, MODEL_SIZE)
            single = cae.encode_image(out["cae"], image)
            err = np.abs(out["code_batches"][b][row] - single) / (1.0 + np.abs(single))
            if not err.max() <= self.code_tolerance:
                failed_batches.add(b)
                messages.append(f"image {i}: batch code differs from encode_image by {err.max():g}")

        codes = np.concatenate(out["code_batches"])
        failed_requests = 0
        for user, probs, top in zip(ctx["users"], out["scores"], out["tops"]):
            problems = []
            rest = np.setdiff1d(np.arange(len(probs)), top)
            if (len(top) != self.top_k or len(set(top.tolist())) != self.top_k
                    or top.min() < 0 or top.max() >= len(probs)
                    or probs[top].min() < probs[rest].max()):
                problems.append("top-k indices are not the k best candidates")
            for j in rng.choice(len(probs), size=2, replace=False):
                prob, _ = recmodel.predict(out["rec"], int(user), int(out["restaurants"][j]),
                                           codes[j])
                if not abs(prob - probs[j]) <= self.score_tolerance:
                    problems.append(f"candidate {j}: score differs from predict by "
                                    f"{abs(prob - probs[j]):g}")
            if problems:
                failed_requests += 1
                messages.append(f"user {user}: " + "; ".join(problems))

        digest = hashlib.sha256(codes.tobytes() + np.stack(out["scores"]).tobytes()).hexdigest()
        latencies = out["latencies"]
        return PassOutcome(
            ops=len(out["code_batches"]) + len(latencies),
            failed=len(failed_batches) + failed_requests, messages=messages,
            values={"encode_img_per_s": len(out["paths"]) / out["encode_s"],
                    "rank_req_per_s": len(latencies) / sum(latencies),
                    "request_s": list(latencies)},
            digest=digest)


# The classifiers train at the program's default learning rate for as many
# epochs as they need to reach a non-zero test B-score on seeds 1..10, so
# that test_b_score can show a loss of learning. On pipeline-cae they cost
# about 10% of a pass; on pipeline-rp (embed 512) they are the pass. One
# autoencoder epoch keeps a pipeline-cae pass near 6 s, so a run times
# several passes.
WORKLOADS = {
    "pipeline-cae": Pipeline(
        n_users=28, image_size=32, feature_source="cae",
        cae_max_epochs=1, cae_patience=1, embed_dim=16,
        rec_max_epochs=100, rec_patience=100),
    "pipeline-rp": Pipeline(
        n_users=40, image_size=64, feature_source="random-projection",
        image_feature_dim=CODE_LENGTH, embed_dim=512,
        rec_max_epochs=10, rec_patience=10),
    "rank": Rank(),
}
