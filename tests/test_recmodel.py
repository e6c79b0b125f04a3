import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import named_views
from platerec import nn
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
        nn.zero_grads(model.arena)
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


class TestArena:

    def cfg(self):
        return RecConfig(n_users=5, n_restaurants=4, image_feature_dim=6, embed_dim=8,
                         dropout_p=0.5, seed=4)

    def train_steps(self, model, batch, n, lr=0.01):
        rng = nn.make_rng(0, "arena-steps")
        for _ in range(n):
            probs = model.forward(batch, mode=nn.TRAINING, rng=rng)
            _, grad = nn.loss_eval(probs, batch.labels.astype(np.float32), "bce")
            nn.zero_grads(model.arena)
            model.backward(grad)
            nn.adam_step(model.arena, lr)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_are_views_in_sorted_name_order(self, dtype):
        model = build_recommender(self.cfg(), dtype=dtype)
        arena = model.arena
        assert arena.values.dtype == dtype
        names = list(model.state_dict())
        assert names == sorted(names) and "concat_bn.running_var" in names
        start = 0
        for name, p in zip(names, model.params(), strict=True):
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
        for p in model.params():
            assert np.shares_memory(p.grad, arena.grad)
        assert np.any(arena.grad != 0)

    def test_grad_norm_is_the_norm_over_every_parameter(self):
        model = build_recommender(self.cfg(), dtype=np.float64)
        batch = make_batch(6, self.cfg(), 1)
        probs = model.forward(batch, mode=nn.TRAINING, rng=nn.make_rng(0, "drop"))
        model.backward(nn.loss_eval(probs, batch.labels.astype(np.float64), "bce")[1])
        expected = np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in model.params()))
        assert model.arena.grad_norm() == pytest.approx(expected, rel=1e-12)
        nn.zero_grads(model.arena)
        assert model.arena.grad_norm() == 0.0

    def test_rebinding_a_gradient_is_rejected(self):
        p = build_recommender(self.cfg()).params()[0]
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
        live = model.state_dict()
        assert not np.array_equal(live["user_emb.table"], frozen["user_emb.table"])
        assert not np.array_equal(live["concat_bn.running_mean"],
                                  frozen["concat_bn.running_mean"])

        nn.load_state(model, snapshot)
        for name, arr in model.state_dict().items():
            assert arr.tobytes() == frozen[name].tobytes(), name
        for p in model.params():
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

    def test_load_state_rejects_a_snapshot_of_the_wrong_size(self):
        model = build_recommender(self.cfg())
        snapshot = nn.snapshot_state(model)
        for wrong in (snapshot[:-1], np.concatenate([snapshot, snapshot[:1]])):
            with pytest.raises(ValueError, match="snapshot holds"):
                nn.load_state(model, wrong)
        assert np.array_equal(model.arena.values, snapshot)


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
