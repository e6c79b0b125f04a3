import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import named_views
from platerec import harness, nn
from platerec.recmodel import (
    RecConfig, TriadBatch, build_recommender, grid_search,
    predict, train_recommender,
)


def make_batch(n, config, seed, labels=None):
    rng = nn.make_rng(seed, "batch")
    if labels is None:
        labels = rng.integers(0, 2, size=n)
    return TriadBatch(
        users=rng.integers(0, config.n_users, size=n),
        restaurants=rng.integers(0, config.n_restaurants, size=n),
        features=rng.normal(size=(n, config.image_feature_dim)).astype(np.float32),
        labels=np.asarray(labels),
    )


def separable_batch(n, config, seed):
    """Label is 1 exactly when the first feature coordinate is positive."""
    rng = nn.make_rng(seed, "sep")
    feats = rng.normal(size=(n, config.image_feature_dim)).astype(np.float32)
    return TriadBatch(
        users=rng.integers(0, config.n_users, size=n),
        restaurants=rng.integers(0, config.n_restaurants, size=n),
        features=feats,
        labels=(feats[:, 0] > 0).astype(int),
    )


class TestConfig:

    def test_embed_dim_must_be_multiple_of_four(self):
        with pytest.raises(ValueError):
            RecConfig(n_users=2, n_restaurants=2, image_feature_dim=4, embed_dim=6)

    def test_reduce_blocks_restricted(self):
        with pytest.raises(ValueError):
            RecConfig(n_users=2, n_restaurants=2, image_feature_dim=4,
                      embed_dim=8, n_reduce_blocks=3)

    def test_needs_image_features(self):
        with pytest.raises(ValueError, match="image_feature_dim"):
            RecConfig(n_users=2, n_restaurants=2, image_feature_dim=0)

    def test_needs_users(self):
        with pytest.raises(ValueError):
            RecConfig(n_users=0, n_restaurants=2, image_feature_dim=4, embed_dim=8)

    @pytest.mark.parametrize("batch_size", [1, 0])
    def test_batch_size_below_two_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            RecConfig(n_users=2, n_restaurants=2, image_feature_dim=4, embed_dim=8,
                      batch_size=batch_size)


class TestArchitecture:

    def test_widths_two_blocks_512(self):
        cfg = RecConfig(n_users=3, n_restaurants=3, image_feature_dim=48,
                        embed_dim=512, n_reduce_blocks=2)
        model = build_recommender(cfg)
        assert model.layer_widths() == [1536, 1024, 512, 256, 128, 1]

    def test_widths_one_block_512(self):
        cfg = RecConfig(n_users=3, n_restaurants=3, image_feature_dim=48,
                        embed_dim=512, n_reduce_blocks=1)
        assert build_recommender(cfg).layer_widths() == [1536, 1024, 512, 256, 1]

    def test_widths_tiny_embedding(self):
        cfg = RecConfig(n_users=3, n_restaurants=3, image_feature_dim=48,
                        embed_dim=8, n_reduce_blocks=2)
        assert build_recommender(cfg).layer_widths() == [24, 16, 8, 4, 2, 1]

    def test_dense_shapes_match_widths(self):
        cfg = RecConfig(n_users=3, n_restaurants=3, image_feature_dim=48,
                        embed_dim=16, n_reduce_blocks=2)
        model = build_recommender(cfg)
        widths = model.layer_widths()
        layers = dict(model.layers)
        chain = [layers[name] for name in ("expand_fc", "block0.fc", "block1.fc",
                                           "half_fc", "out_fc")]
        for fc, w_in, w_out in zip(chain, widths, widths[1:]):
            assert fc.weight.value.shape == (w_in, w_out)


class TestForward:

    def cfg(self, **kw):
        base = dict(n_users=5, n_restaurants=4, image_feature_dim=12,
                    embed_dim=8, seed=1)
        base.update(kw)
        return RecConfig(**base)

    def test_probabilities_in_unit_interval(self):
        cfg = self.cfg()
        model = build_recommender(cfg)
        probs = model.forward(make_batch(10, cfg, 0))
        assert probs.shape == (10,)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_row_permutation_equivariant_in_inference(self):
        cfg = self.cfg()
        model = build_recommender(cfg)
        batch = make_batch(9, cfg, 3)
        perm = nn.make_rng(7, "perm").permutation(9)
        assert np.allclose(model.forward(batch.take(perm)),
                           model.forward(batch)[perm], atol=1e-6)

    def test_identical_triads_identical_outputs(self):
        cfg = self.cfg()
        model = build_recommender(cfg)
        one = make_batch(1, cfg, 5)
        idx = np.zeros(4, dtype=int)
        probs = model.forward(one.take(idx))
        assert np.allclose(probs, probs[0])

    def test_empty_batch_rejected(self):
        cfg = self.cfg()
        model = build_recommender(cfg)
        with pytest.raises(ValueError):
            model.forward(make_batch(6, cfg, 0).take(np.array([], dtype=int)))

    def test_training_needs_two_rows(self):
        cfg = self.cfg()
        model = build_recommender(cfg)
        with pytest.raises(ValueError):
            model.forward(make_batch(1, cfg, 0), mode=nn.TRAINING,
                          rng=nn.make_rng(0, "d"))

    def test_predict_threshold_boundary(self):
        cfg = self.cfg()
        model = build_recommender(cfg)
        feat = np.zeros(cfg.image_feature_dim, dtype=np.float32)
        prob, _ = predict(model, 0, 0, feat)
        _, at_prob = predict(model, 0, 0, feat, threshold=prob)
        _, above = predict(model, 0, 0, feat, threshold=prob + 1e-6)
        assert at_prob == 1  # probability equal to threshold counts as positive
        assert above == 0


class TestGradients:

    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_full_network_gradient_matches_finite_difference(self, n_blocks):
        # dropout_p=0 keeps training mode deterministic for finite differences
        cfg = RecConfig(n_users=4, n_restaurants=3, image_feature_dim=6,
                        embed_dim=8, n_reduce_blocks=n_blocks, dropout_p=0.0,
                        seed=9)
        model = build_recommender(cfg, dtype=np.float64)
        batch = make_batch(5, cfg, 9)
        probe = dict(model.layers)["user_emb"].table  # the table gradient exercises the whole net

        def loss_of():
            probs = model.forward(batch, mode=nn.TRAINING)
            loss, _ = nn.loss_eval(probs, batch.labels.astype(np.float64), "bce")
            return loss

        probs = model.forward(batch, mode=nn.TRAINING)
        _, grad = nn.loss_eval(probs, batch.labels.astype(np.float64), "bce")
        model.backward(grad)
        analytic = probe.grad.copy()
        numeric = nn.numerical_gradient(loss_of, probe.value)
        assert nn.max_relative_error(analytic, numeric) < 1e-3


class TestTraining:

    def cfg(self, **kw):
        base = dict(n_users=6, n_restaurants=5, image_feature_dim=8,
                    embed_dim=8, batch_size=16, max_epochs=20, patience=20,
                    learning_rate=0.01, seed=2)
        base.update(kw)
        return RecConfig(**base)

    def test_learns_separable_rule(self):
        cfg = self.cfg()
        train = separable_batch(200, cfg, 1)
        val = separable_batch(60, cfg, 2)
        model = build_recommender(cfg)
        model, history = train_recommender(model, train, val, cfg)
        assert max(history.val_b_score) > 0.9
        assert history.best_epoch == int(np.argmax(history.val_b_score)) + 1

    def test_same_seed_identical_history(self):
        cfg = self.cfg(max_epochs=4, patience=4)
        train = separable_batch(80, cfg, 4)
        val = separable_batch(30, cfg, 5)
        _, h1 = train_recommender(build_recommender(cfg), train, val, cfg)
        _, h2 = train_recommender(build_recommender(cfg), train, val, cfg)
        assert h1.train_loss == h2.train_loss
        assert h1.val_b_score == h2.val_b_score

    def test_empty_train_rejected(self):
        cfg = self.cfg()
        empty = make_batch(4, cfg, 0).take(np.array([], dtype=int))
        with pytest.raises(ValueError):
            train_recommender(build_recommender(cfg), empty, make_batch(4, cfg, 0), cfg)

    def test_nan_feature_row_stops_training(self):
        cfg = self.cfg(max_epochs=5, patience=5)
        train = separable_batch(60, cfg, 10)
        train.features[17] = np.nan
        with pytest.raises(ValueError, match="epoch 1: non-finite train loss"):
            train_recommender(build_recommender(cfg), train, separable_batch(20, cfg, 11), cfg)

    def test_single_class_validation_warns(self):
        cfg = self.cfg(max_epochs=1, patience=1)
        train = separable_batch(40, cfg, 6)
        val = make_batch(10, cfg, 7, labels=np.ones(10, dtype=int))
        with pytest.warns(UserWarning):
            train_recommender(build_recommender(cfg), train, val, cfg)

    def test_restored_weights_reproduce_best_score(self):
        cfg = self.cfg(max_epochs=12, patience=3)
        train = separable_batch(120, cfg, 8)
        val = separable_batch(40, cfg, 9)
        model, history = train_recommender(build_recommender(cfg), train, val, cfg)
        from platerec.recmodel import _val_b_score
        re_eval = _val_b_score(model, val, cfg.decision_threshold)
        assert re_eval == pytest.approx(max(history.val_b_score))


def named_params(model):
    """Every Parameter of the model, in the arena's sorted-name order."""
    named = ((f"{prefix}.{name}", p) for prefix, layer in model.layers
             for name, p in layer.tensors().items())
    return [p for _, p in sorted(named, key=lambda item: item[0])]


class TestArena:

    def cfg(self):
        return RecConfig(n_users=5, n_restaurants=4, image_feature_dim=6, embed_dim=8,
                         dropout_p=0.5, seed=4)

    def train_steps(self, model, batch, n, lr=0.01):
        rng = nn.make_rng(0, "arena-steps")
        for _ in range(n):
            probs = model.forward(batch, mode=nn.TRAINING, rng=rng)
            _, grad = nn.loss_eval(probs, batch.labels.astype(np.float32), "bce")
            model.backward(grad)
            nn.adam_step(model.arena, lr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_are_views_in_sorted_name_order(self, dtype):
        model = build_recommender(self.cfg(), dtype=dtype)
        arena = model.arena
        assert arena.values.dtype == dtype
        names = list(named_views(model, arena.values))
        assert names == sorted(names) and "concat_bn.running_var" in names
        start = 0
        for name, p in zip(names, named_params(model), strict=True):
            assert p.value.base is arena.values
            assert np.shares_memory(p.value, arena.values[start:start + p.value.size])
            assert model.directory[name] == {"shape": list(p.shape), "offset": start}
            start += p.value.size
        assert start == arena.values.size

    def test_forward_allocates_no_training_state(self):
        model = build_recommender(self.cfg())
        model.forward(make_batch(6, self.cfg(), 1), mode=nn.INFERENCE)
        assert model.arena.grad is None
        assert model.arena.adam_m is None and model.arena.adam_v is None

    def test_backward_allocates_the_gradient_buffer(self):
        model = build_recommender(self.cfg())
        batch = make_batch(6, self.cfg(), 1)
        probs = model.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(0, "drop"))
        model.backward(nn.loss_eval(probs, batch.labels.astype(np.float32), "bce")[1])
        arena = model.arena
        assert arena.grad is not None and arena.adam_m is None
        for p in named_params(model):
            assert np.shares_memory(p.grad, arena.grad)
        assert np.any(arena.grad != 0)

    def test_grad_norm_is_the_norm_over_every_parameter(self):
        model = build_recommender(self.cfg(), dtype=np.float64)
        batch = make_batch(6, self.cfg(), 1)
        probs = model.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(0, "drop"))
        model.backward(nn.loss_eval(probs, batch.labels.astype(np.float64), "bce")[1])
        expected = np.sqrt(sum(float(np.sum(g ** 2))
                               for g in named_views(model, model.arena.grad).values()))
        assert model.arena.grad_norm() == pytest.approx(expected, rel=1e-12)
        nn.zero_grads(model.arena)
        assert model.arena.grad_norm() == 0.0

    def test_rebinding_a_gradient_is_rejected(self):
        p = named_params(build_recommender(self.cfg()))[0]
        with pytest.raises(AttributeError):
            p.grad = np.zeros_like(p.value)

    def test_one_dtype_per_arena(self):
        with pytest.raises(ValueError):
            nn.Arena([nn.Parameter(np.zeros(2, np.float32)), nn.Parameter(np.zeros(2))])

    def test_snapshot_is_a_copy_and_restores_bit_exactly(self):
        model = build_recommender(self.cfg())
        batch = make_batch(12, self.cfg(), 2)
        self.train_steps(model, batch, 2)
        snapshot = nn.snapshot_state(model)
        frozen = named_views(model, snapshot.copy())
        assert not np.shares_memory(snapshot, model.arena.values)

        self.train_steps(model, batch, 3)
        for name, arr in named_views(model, snapshot).items():
            assert np.array_equal(arr, frozen[name]), f"{name} followed the live model"
        live = named_views(model, model.arena.values)
        assert not np.array_equal(live["user_emb.table"], frozen["user_emb.table"])
        assert not np.array_equal(live["concat_bn.running_mean"],
                                  frozen["concat_bn.running_mean"])

        nn.load_state(model, snapshot)
        for name, arr in named_views(model, model.arena.values).items():
            assert arr.tobytes() == frozen[name].tobytes(), name
        for p in named_params(model):
            assert np.shares_memory(p.value, model.arena.values)

    def test_snapshot_is_one_buffer(self):
        model = build_recommender(replace(self.cfg(), embed_dim=64))
        nn.snapshot_state(model)  # warm: the first call may set up lazily
        tracemalloc.start()
        try:
            snapshot = nn.snapshot_state(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = model.arena.values.nbytes
        assert snapshot.nbytes == nbytes
        assert nbytes <= peak <= nbytes + 4096

    def test_snapshot_into_an_earlier_one_allocates_nothing(self):
        model = build_recommender(replace(self.cfg(), embed_dim=64))
        earlier = nn.snapshot_state(model)
        self.train_steps(model, make_batch(12, self.cfg(), 2), 2)
        tracemalloc.start()
        try:
            again = nn.snapshot_state(model, out=earlier)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again is earlier
        assert again.tobytes() == model.arena.values.tobytes()
        assert peak <= 4096

    def test_fit_overwrites_one_snapshot_buffer(self, monkeypatch):
        taken, snapshot = [], nn.snapshot_state

        def recording(model, out=None):
            taken.append(snapshot(model, out=out))
            return taken[-1]

        monkeypatch.setattr(nn, "snapshot_state", recording)
        cfg = replace(self.cfg(), batch_size=16, max_epochs=8, patience=8, learning_rate=0.01)
        model, history = train_recommender(build_recommender(cfg), separable_batch(120, cfg, 8),
                                           separable_batch(40, cfg, 9), cfg)
        assert len(taken) >= 2
        assert all(buffer is taken[0] for buffer in taken)
        assert history.val_b_score[history.best_epoch - 1] == max(history.val_b_score)

    def test_load_state_rejects_a_snapshot_of_the_wrong_size(self):
        model = build_recommender(self.cfg())
        snapshot = nn.snapshot_state(model)
        for wrong in (snapshot[:-1], np.concatenate([snapshot, snapshot[:1]])):
            with pytest.raises(ValueError, match="snapshot holds"):
                nn.load_state(model, wrong)
        assert np.array_equal(model.arena.values, snapshot)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_load_state_rejects_a_snapshot_of_another_dtype(self, dtype):
        model = build_recommender(self.cfg())
        before = nn.snapshot_state(model)
        version = model.arena.version
        wrong = np.ones(before.shape, dtype)
        with pytest.raises(ValueError, match=f"{np.dtype(dtype)} values, the model float32"):
            nn.load_state(model, wrong)
        assert np.array_equal(model.arena.values, before)
        assert model.arena.version == version


def layer_by_layer(model, batch):
    """The inference forward run one layer at a time, the form the factorized
    inference path must reproduce."""
    inputs = (batch.users, batch.restaurants, np.asarray(batch.features, dtype=model.dtype))
    x = np.concatenate([branch.forward(inp) for branch, inp in zip(model.branches, inputs)],
                       axis=1)
    return model.tail.forward(x)[:, 0]


def randomize_affine_state(model, seed):
    """Non-trivial batch-norm statistics, scales and shifts, and non-zero Dense biases."""
    rng = nn.make_rng(seed, "affine-state")
    for _, layer in model.layers:
        if isinstance(layer, nn.BatchNorm):
            k = layer.num_features
            layer.running_mean[...] = rng.normal(size=k)
            layer.running_var[...] = rng.uniform(0.25, 4.0, size=k)
            layer.gamma.value[...] = rng.uniform(0.5, 1.5, size=k)
            layer.beta.value[...] = rng.normal(scale=0.2, size=k)
        elif isinstance(layer, nn.Dense):
            layer.bias.value[...] = rng.normal(scale=0.2, size=layer.out_features)


class TestFactorizedInference:

    def cfg(self, **kw):
        base = dict(n_users=9, n_restaurants=6, image_feature_dim=12, embed_dim=32, seed=8)
        base.update(kw)
        return RecConfig(**base)

    def model(self, cfg, dtype=np.float32):
        model = build_recommender(cfg, dtype=dtype)
        randomize_affine_state(model, cfg.seed)
        return model

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
    @pytest.mark.parametrize("n_blocks", [1, 2])
    @pytest.mark.parametrize("n", [1, 8, 416])
    @pytest.mark.parametrize("one_user", [False, True])
    def test_matches_the_layer_by_layer_forward(self, dtype, tol, n_blocks, n, one_user):
        cfg = self.cfg(n_reduce_blocks=n_blocks)
        model = self.model(cfg, dtype)
        batch = make_batch(n, cfg, n)
        if one_user:
            batch.users[:] = 3
        probs = model.forward(batch)
        assert probs.dtype == dtype and probs.shape == (n,)
        assert np.abs(probs - layer_by_layer(model, batch)).max() <= tol

    def test_rank_requests_keep_their_top_ten(self):
        # the rank benchmark's shapes: 52 users, 15 restaurants, 416 candidates
        # of 48-value image codes, embed 512, one user per request
        cfg = RecConfig(n_users=52, n_restaurants=15, image_feature_dim=48, embed_dim=512,
                        seed=3)
        model = self.model(cfg)
        rng = nn.make_rng(3, "rank-requests")
        candidates = make_batch(416, cfg, 3)
        for user in rng.integers(0, cfg.n_users, size=50):
            candidates.users[:] = user
            probs, reference = model.forward(candidates), layer_by_layer(model, candidates)
            assert np.abs(probs - reference).max() <= 1e-5
            assert np.array_equal(np.argsort(-probs, kind="stable")[:10],
                                  np.argsort(-reference, kind="stable")[:10])

    def test_follows_every_weight_update(self, tmp_path):
        # nothing of the fold outlives a call: an Adam step, a restored snapshot
        # and a loaded checkpoint each show at once
        cfg = self.cfg()
        model = self.model(cfg)
        batch = make_batch(40, cfg, 1)
        start = nn.snapshot_state(model)
        before = model.forward(batch)

        probs = model.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(0, "drop"))
        model.backward(nn.loss_eval(probs, batch.labels.astype(np.float32), "bce")[1])
        nn.adam_step(model.arena, 0.05)
        stepped = model.forward(batch)
        assert np.abs(stepped - before).max() > 1e-3
        assert np.abs(stepped - layer_by_layer(model, batch)).max() <= 1e-5

        harness.save_checkpoint(model, tmp_path / "stepped.ckpt")
        nn.load_state(model, start)
        assert np.array_equal(model.forward(batch), before)
        assert np.abs(before - layer_by_layer(model, batch)).max() <= 1e-5

        loaded = harness.load_checkpoint(tmp_path / "stepped.ckpt")
        assert np.array_equal(loaded.forward(batch), stepped)
        assert np.abs(stepped - layer_by_layer(loaded, batch)).max() <= 1e-5

    @pytest.mark.parametrize("field", ["users", "restaurants"])
    @pytest.mark.parametrize("bad", [-1, "size"])
    @pytest.mark.parametrize("mode", [nn.INFERENCE, nn.TRAINING])
    def test_out_of_range_id_rejected(self, field, bad, mode):
        cfg = self.cfg()
        batch = make_batch(6, cfg, 2)
        size = cfg.n_users if field == "users" else cfg.n_restaurants
        getattr(batch, field)[4] = size if bad == "size" else bad
        with pytest.raises(ValueError, match=f"index out of range for table of size {size}"):
            self.model(cfg).forward(batch, mode=mode, rng=nn.make_rng(0, "drop"))

    def test_wrong_feature_width_rejected(self):
        cfg = self.cfg()
        batch = make_batch(6, cfg, 2)
        batch.features = batch.features[:, :-1]
        with pytest.raises(ValueError, match=r"expected input of shape \(N,12\)"):
            self.model(cfg).forward(batch)


class TestTriadBatch:

    def cfg(self):
        return RecConfig(n_users=5, n_restaurants=4, image_feature_dim=3, embed_dim=8)

    @pytest.mark.parametrize("labels", [[0, 2, 1], [0, -1, 1], [0.5, 1, 0]])
    def test_construction_rejects_bad_labels(self, labels):
        batch = make_batch(3, self.cfg(), 0)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            TriadBatch(batch.users, batch.restaurants, batch.features, np.array(labels))

    @pytest.mark.parametrize("field", ["users", "restaurants", "features", "labels"])
    def test_construction_rejects_unequal_lengths(self, field):
        fields = vars(make_batch(4, self.cfg(), 0))
        fields[field] = fields[field][:3]
        with pytest.raises(ValueError, match="equal length"):
            TriadBatch(**fields)

    def test_take_skips_the_checks_and_keeps_the_rows(self, monkeypatch):
        batch = make_batch(10, self.cfg(), 1)
        idx = np.array([7, 0, 7, 3])

        def fail(self):
            raise AssertionError("take re-ran __post_init__")

        monkeypatch.setattr(TriadBatch, "__post_init__", fail)
        subset = batch.take(idx)
        assert type(subset) is TriadBatch and len(subset) == 4
        for name in ("users", "restaurants", "features", "labels"):
            assert np.array_equal(getattr(subset, name), getattr(batch, name)[idx])


class TestFoldCache:
    """The inference fold is cached on the model and rebuilt when the arena's
    version moves; each case warms the cache first, then writes the weights."""

    def cfg(self, **kw):
        base = dict(n_users=9, n_restaurants=6, image_feature_dim=12, embed_dim=32,
                    batch_size=16, max_epochs=4, patience=4, learning_rate=0.01, seed=5)
        base.update(kw)
        return RecConfig(**base)

    def warm(self, cfg=None):
        cfg = cfg or self.cfg()
        model = build_recommender(cfg)
        randomize_affine_state(model, cfg.seed)
        batch = make_batch(40, cfg, 2)
        return model, batch, model.forward(batch)

    def assert_follows(self, model, batch, stale):
        probs = model.forward(batch)
        assert np.abs(probs - layer_by_layer(model, batch)).max() <= 1e-5
        assert np.abs(probs - stale).max() > 1e-4  # the write moved the output

    def adam_step_without_forward(self, model, seed):
        grad = model.arena.require_grad()
        grad[...] = nn.make_rng(seed, "fold-cache-grad").normal(size=grad.size)
        nn.adam_step(model.arena, 0.05)

    def test_adam_step(self):
        model, batch, stale = self.warm()
        self.adam_step_without_forward(model, 0)
        self.assert_follows(model, batch, stale)

    def test_load_state(self):
        model, batch, _ = self.warm()
        self.adam_step_without_forward(model, 1)
        stepped = nn.snapshot_state(model)
        self.adam_step_without_forward(model, 2)
        stale = model.forward(batch)
        nn.load_state(model, stepped)
        self.assert_follows(model, batch, stale)

    def test_load_checkpoint(self, tmp_path):
        model, batch, stale = self.warm()
        self.adam_step_without_forward(model, 3)
        harness.save_checkpoint(model, tmp_path / "stepped.ckpt")
        loaded = harness.load_checkpoint(tmp_path / "stepped.ckpt")
        assert loaded.arena.version != 0  # the load counts as a write
        self.assert_follows(loaded, batch, stale)
        assert np.array_equal(loaded.forward(batch), model.forward(batch))

    def test_training_forward_updates_the_running_statistics(self):
        model, batch, stale = self.warm()
        model.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(0, "fold-cache-drop"))
        self.assert_follows(model, batch, stale)

    def test_fit(self):
        cfg = self.cfg()
        model, batch, stale = self.warm(cfg)
        _, history = train_recommender(model, separable_batch(64, cfg, 3),
                                       separable_batch(24, cfg, 4), cfg)
        # the best epoch is not the last, so fit's restore writes the weights
        # after the last validation forward built a fold
        assert history.best_epoch < len(history.val_b_score)
        self.assert_follows(model, batch, stale)

    def test_a_view_write_counts_once_the_version_moves(self):
        model, batch, stale = self.warm()
        dict(model.layers)["user_emb"].table.value[...] *= -1.0
        model.arena.version += 1
        self.assert_follows(model, batch, stale)

    def test_forwards_without_a_write_reuse_one_fold(self, monkeypatch):
        calls, multi_dot = [], np.linalg.multi_dot

        def counting(arrays, **kw):
            calls.append(len(arrays))
            return multi_dot(arrays, **kw)

        monkeypatch.setattr(np.linalg, "multi_dot", counting)
        cfg = self.cfg()
        model = build_recommender(cfg)
        batch = make_batch(40, cfg, 2)
        first = model.forward(batch)
        built = len(calls)
        assert built == 3  # W_img, T_user and T_rest
        assert np.array_equal(model.forward(batch), first)
        predict(model, 1, 2, batch.features[0])
        model.forward(batch.take(np.arange(5)))
        assert len(calls) == built
        self.adam_step_without_forward(model, 4)
        model.forward(batch)
        assert len(calls) == 2 * built

    def test_predict_reads_the_batch_fold(self):
        model, batch, probs = self.warm()
        for j in (0, 17, 39):
            prob, _ = predict(model, int(batch.users[j]), int(batch.restaurants[j]),
                              batch.features[j])
            assert abs(prob - probs[j]) <= 1e-6

    def test_the_fold_holds_nothing_arena_sized(self):
        # the rank benchmark's shapes: a 9 MB arena, a fold of (48 + 1 + 52 + 15) rows
        cfg = RecConfig(n_users=52, n_restaurants=15, image_feature_dim=48, embed_dim=512)
        model = build_recommender(cfg)
        batch = make_batch(416, cfg, 6)
        tracemalloc.start()
        try:
            model.forward(batch)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        fold_bytes = (48 + 1 + 52 + 15) * 512 * 4
        assert model.arena.values.nbytes > 9_000_000
        assert fold_bytes <= held <= fold_bytes + 64 * 1024


# sha256 of one training step's gradient buffer, feature gradient and output,
# taken with the layer-by-layer training code at fixed seeds; this build's
# BLAS and numpy enter the bytes
TRAINING_STEP_SHA256 = {
    1: "b29f94ad0afd9dfddeb60c06f99db8b3201dc998bd3d4690a1e72ad123e42c80",
    2: "34caaa2b4dd2831b62f062ba996d012ae13f9f500c7a75392f376e07b775524b",
}


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_training_step_bytes_are_pinned(n_blocks):
    cfg = RecConfig(n_users=7, n_restaurants=5, image_feature_dim=12, embed_dim=16,
                    n_reduce_blocks=n_blocks, seed=11)
    model = build_recommender(cfg)
    rng = nn.make_rng(11, "fold-grad-batch")
    batch = TriadBatch(users=rng.integers(0, 7, size=16), restaurants=rng.integers(0, 5, size=16),
                       features=rng.normal(size=(16, 12)).astype(np.float32),
                       labels=rng.integers(0, 2, size=16))
    probs = model.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(11, "fold-grad-drop"))
    _, grad = nn.loss_eval(probs, batch.labels.astype(np.float32), "bce")
    feature_grad = model.backward(grad)
    digest = hashlib.sha256(model.arena.grad.tobytes() + feature_grad.tobytes() + probs.tobytes())
    assert digest.hexdigest() == TRAINING_STEP_SHA256[n_blocks]


class TestGridSearch:

    def cfg(self):
        return RecConfig(n_users=6, n_restaurants=5, image_feature_dim=8,
                         embed_dim=8, batch_size=16, max_epochs=3, seed=3)

    def test_cartesian_product(self):
        cfg = self.cfg()
        train = separable_batch(60, cfg, 1)
        val = separable_batch(20, cfg, 2)
        rows, best = grid_search(train, val, [0.01, 0.001], [8, 16], cfg, patience=3)
        assert len(rows) == 4
        assert {(r["lr"], r["embed_dim"]) for r in rows} == \
            {(0.01, 8), (0.01, 16), (0.001, 8), (0.001, 16)}
        assert best in {(r["lr"], r["embed_dim"]) for r in rows}
        top = max(r["val_b_score"] for r in rows)
        winner = [r for r in rows if (r["lr"], r["embed_dim"]) == best][0]
        assert winner["val_b_score"] == top

    def test_single_candidate(self):
        cfg = self.cfg()
        train = separable_batch(40, cfg, 3)
        val = separable_batch(16, cfg, 4)
        rows, best = grid_search(train, val, [0.01], [8], cfg, patience=2)
        assert len(rows) == 1 and best == (0.01, 8)

    def test_empty_candidates_rejected(self):
        cfg = self.cfg()
        b = separable_batch(20, cfg, 5)
        with pytest.raises(ValueError):
            grid_search(b, b, [], [8], cfg)

    def test_tie_breaks_to_smaller_embedding_then_larger_lr(self):
        from platerec.recmodel import grid_search as gs
        # exercise the tie-break ordering directly on equal scores
        rows = [{"lr": lr, "embed_dim": e, "val_b_score": 0.5}
                for lr in (0.001, 0.01) for e in (16, 8)]
        best = sorted(rows, key=lambda r: (-r["val_b_score"], r["embed_dim"], -r["lr"]))[0]
        assert (best["lr"], best["embed_dim"]) == (0.01, 8)
