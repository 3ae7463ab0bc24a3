import copy
import multiprocessing
import os
import pickle
import time
import types

import numpy as np
import pytest

from fedgela.cli import parse_config
from fedgela.datagen import PartitionSpec, dirichlet_partition, pcdd_partition, synth_gaussian_mixture
from fedgela.etfgeom import make_etf
from fedgela.fedsim import (
    AlgoKind,
    Hyperparams,
    aggregate,
    compute_phi,
    evaluate,
    finetune_personalize,
    init_state,
    local_train,
    read_round_csv,
    run_federation,
    run_many,
    sample_clients,
    step,
    write_round_csv,
)
from fedgela import fedsim, metrics
from fedgela.metrics import angle_report, personal_accuracy
from fedgela.neuralnet import Layout, forward, init_backbone, init_classifier
from reference_ops import Model, clone, init_model


def small_config(**kw):
    base = {
        "dataset": "synthetic", "classes": 4, "input_dim": 6, "n_per_class": 30,
        "class_sep": 3.0, "noise_sigma": 1.0,
        "scheme": "pcdd", "classes_per_client": 2, "clients": 4,
        "algo": "fedgela", "rounds": 2, "epochs": 2, "batch_size": 10,
        "min_size": 5, "lr": 0.05, "e_w": 9.0, "hidden": "16", "seed": 1,
    }
    base.update(kw)
    return parse_config(base)


def clients_of(shards, n_classes, algo):
    """One namespace per shard with its shard, (C,) phi and mask, as
    init_state computes them: phi None and every class for the algorithms
    that do not adapt phi."""
    adapts = algo.adapts_phi
    return [types.SimpleNamespace(
        client_id=s.client_id, shard=s, mask=s.counts > 0 if adapts else np.ones(n_classes, bool),
        phi=compute_phi(s.counts, s.n_k, 1.0 / n_classes) if adapts else None) for s in shards]


def start_of(backbone, classifier, algo):
    """local_train's layout, start row and frame for a backbone (a
    reference_ops.Model without a classifier) and a d x C classifier matrix:
    the backbone with the classifier in its row, if the algorithm learns it,
    else the backbone alone and the classifier as the fixed frame."""
    if algo.fixed_classifier:
        return Layout(backbone.layer_sizes), backbone.row(), classifier
    learnable = Model(backbone.weights, backbone.biases, classifier)
    return Layout(backbone.layer_sizes, classifier.shape[1]), learnable.row(), None


def split(layout, row):
    """The model `row` of `layout` as its backbone (a reference_ops.Model
    without a classifier) and its classifier, None for a fixed frame."""
    model = Model.of(layout, row)
    return Model(model.weights, model.biases), model.classifier


def train(clients, backbone, classifier, algo, hp, ds, seed_parts):
    """local_train on the clients' shards, with their phi and mask rows when
    the algorithm adapts phi, as one namespace per client: its row, its
    model (backbone, and classifier; the classifier None for a fixed frame)
    and its epoch losses."""
    phi = mask = None
    if algo.adapts_phi:
        phi = np.stack([c.phi for c in clients])
        mask = np.stack([c.mask for c in clients])
    layout, row, frame = start_of(backbone, classifier, algo)
    out = local_train([c.shard for c in clients], layout, row, frame, algo, hp, ds,
                      seed_parts, phi, mask)
    return as_results(out, layout, hp.epochs)


def as_results(out, layout, epochs):
    """local_train's (rows, losses) as one namespace per client."""
    rows, losses = out
    assert rows.shape == (len(losses), layout.size)
    assert losses.shape == (len(rows), epochs)
    return [types.SimpleNamespace(row=row, backbone=bb, classifier=clf, epoch_losses=list(loss))
            for row, (bb, clf), loss in zip(rows, (split(layout, r) for r in rows), losses)]


def finetune(backbone, classifier, shards, algo, hp, epochs, ds, seed_parts):
    """finetune_personalize's output, as train's."""
    layout, row, frame = start_of(backbone, classifier, algo)
    return as_results(finetune_personalize(shards, layout, row, frame, algo, hp, epochs,
                                           ds, seed_parts), layout, epochs)


def server_of(state):
    """The server model of a RunState and the classifier it scores with."""
    backbone, classifier = split(state.inputs.layout, state.server_theta)
    frame = state.inputs.frame
    return types.SimpleNamespace(backbone=backbone,
                                 classifier=classifier if frame is None else frame)


class TestAlgoKind:
    def test_valid_kinds(self):
        for kind in ("fedavg", "fedprox", "fedge", "fedgela", "laonly"):
            AlgoKind(kind)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgoKind("fedsgd")

    def test_prox_weight_only_for_fedprox(self):
        AlgoKind("fedprox", lambda_prox=0.5)
        with pytest.raises(ValueError, match="only meaningful"):
            AlgoKind("fedavg", lambda_prox=0.5)


class TestHyperparams:
    @pytest.mark.parametrize("field, value", [("lr", 0.0), ("epochs", -1),
                                              ("batch_size", 0), ("e_h", -2.0)])
    def test_bad_field_named(self, field, value):
        with pytest.raises(ValueError, match=rf"hyperparameter {field} = "):
            Hyperparams(**{field: value})


class TestComputePhi:
    def test_uniform_client_gives_ones(self):
        phi = compute_phi(np.full(10, 10), 100, gamma=0.1)
        np.testing.assert_allclose(phi, np.ones(10))

    def test_half_missing(self):
        counts = np.array([50, 50] + [0] * 8)
        phi = compute_phi(counts, 100, gamma=0.1)
        np.testing.assert_allclose(phi, [5.0, 5.0] + [0.0] * 8)

    def test_two_class_direct_substitution(self):
        phi = compute_phi(np.array([3, 1]), 4, gamma=0.5)
        np.testing.assert_allclose(phi, [1.5, 0.5])

    def test_mean_one_under_default_gamma(self):
        counts = np.array([7, 0, 3, 10, 0])
        phi = compute_phi(counts, 20, gamma=1.0 / 5)
        assert phi.shape == (5,) and abs(phi.mean() - 1.0) < 1e-12
        np.testing.assert_array_equal(phi == 0.0, counts == 0)

    def test_non_finite_phi_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="finite and non-negative"):
            compute_phi(np.array([1, 1]), 2, gamma=1e-320)

    def test_empty_client(self):
        with pytest.raises(ValueError, match="empty client"):
            compute_phi(np.zeros(3), 0, gamma=1 / 3)


class TestAltPhi:
    def test_identity_equals_compute_phi(self):
        counts = np.array([7, 3, 0, 10])
        a = compute_phi(counts, 20, gamma=0.25, q_kind="identity")
        b = compute_phi(counts, 20, gamma=0.25)
        np.testing.assert_allclose(a, b)

    def test_sqrt_ratio(self):
        phi = compute_phi(np.array([4, 1]), 5, gamma=0.5, q_kind="sqrt")
        assert abs(phi[0] / phi[1] - 2.0) < 1e-12

    def test_exp_uniform_counts_equal(self):
        phi = compute_phi(np.full(5, 8), 40, gamma=0.2, q_kind="exp")
        assert np.ptp(phi) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="q_kind"):
            compute_phi(np.array([1, 1]), 2, gamma=0.5, q_kind="log")


class TestPhiAggregationIdentity:
    def test_weighted_phi_sums_to_one_on_balanced_data(self):
        # sum_k p_k phi_{k,c} = 1 for every class on globally balanced data
        ds = synth_gaussian_mixture(6, 8, 60, 3.0, 1.0, seed=0)
        specs = [
            PartitionSpec("dirichlet", 5, seed=s, beta=b, min_size=1)
            for s, b in [(0, 0.1), (1, 0.5), (2, 5.0)]
        ] + [
            PartitionSpec("pcdd", 6, seed=s, classes_per_client=c)
            for s, c in [(3, 2), (4, 3), (5, 6)]
        ]
        n = ds.n
        for spec in specs:
            shards = (dirichlet_partition if spec.scheme == "dirichlet"
                      else pcdd_partition)(ds, spec)
            weighted = np.zeros(ds.n_classes)
            for shard in shards:
                phi = compute_phi(shard.counts, shard.n_k, gamma=1.0 / ds.n_classes)
                weighted += (shard.n_k / n) * phi
            assert np.max(np.abs(weighted - 1.0)) < 1e-9


class TestSampleClients:
    def test_full_participation(self):
        np.testing.assert_array_equal(sample_clients(10, 10, 0), np.arange(10))

    def test_deterministic(self):
        a = sample_clients(50, 10, (7, 2, 3))
        b = sample_clients(50, 10, (7, 2, 3))
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 10

    def test_everyone_selected_over_many_rounds(self):
        seen = set()
        for t in range(1, 101):
            seen.update(sample_clients(50, 10, (0, 2, t)).tolist())
        assert seen == set(range(50))

    def test_oversample_rejected(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sample_clients(5, 6, 0)


class TestLocalTrain:
    def _setup(self, algo_kind="fedgela", **cfg_kw):
        cfg = small_config(algo=algo_kind, **cfg_kw)
        ds = synth_gaussian_mixture(cfg.classes, cfg.input_dim, cfg.n_per_class,
                                    cfg.class_sep, cfg.noise_sigma, cfg.data_seed)
        spec = PartitionSpec("pcdd", cfg.clients, seed=cfg.partition_seed,
                             classes_per_client=cfg.classes_per_client)
        shards = pcdd_partition(ds, spec)
        algo = AlgoKind(algo_kind, lambda_prox=cfg.lambda_prox)
        clients = clients_of(shards, ds.n_classes, algo)
        hp = Hyperparams(lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay,
                         epochs=cfg.epochs, batch_size=cfg.batch_size, e_h=cfg.e_h)
        backbone = init_model((cfg.input_dim, 16, ds.n_classes), seed=0)
        frame = make_etf(ds.n_classes, ds.n_classes, 1, e_w=cfg.e_w).classifier
        return ds, clients, algo, hp, backbone, frame

    def test_zero_epochs_unchanged(self):
        ds, clients, algo, hp, backbone, frame = self._setup()
        hp0 = Hyperparams(lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay,
                          epochs=0, batch_size=hp.batch_size, e_h=hp.e_h)
        res = train([clients[0]], backbone, frame, algo, hp0, ds, [(0, 3, 1, 0)])[0]
        for a, b in zip(res.backbone.tensors(), backbone.tensors()):
            np.testing.assert_array_equal(a, b)
        assert res.epoch_losses == []

    def test_fedprox_zero_lambda_identical_to_fedavg(self):
        ds, clients, _, hp, backbone, _ = self._setup("fedavg")
        clf = init_classifier(ds.n_classes, ds.n_classes, seed=5)
        res_avg = train([clients[1]], backbone, clf, AlgoKind("fedavg"),
                        hp, ds, [(0, 3, 1, 1)])[0]
        res_prox = train([clients[1]], backbone, clf,
                         AlgoKind("fedprox", lambda_prox=0.0),
                         hp, ds, [(0, 3, 1, 1)])[0]
        for a, b in zip(res_avg.backbone.tensors(), res_prox.backbone.tensors()):
            assert a.tobytes() == b.tobytes()
        assert res_avg.classifier.tobytes() == res_prox.classifier.tobytes()

    @pytest.mark.parametrize("kind", ["fedavg", "fedprox", "fedge"])
    @pytest.mark.parametrize("given", ["phi", "mask"])
    def test_phi_or_mask_rejected_unless_the_algorithm_adapts_phi(self, kind, given):
        ds, clients, _, hp, backbone, frame = self._setup("fedgela")
        rows = {"phi": np.ones((1, ds.n_classes)), "mask": np.ones((1, ds.n_classes), bool)}
        with pytest.raises(ValueError, match=f"algo={kind} does not adapt phi"):
            local_train([clients[0].shard], *start_of(backbone, frame, AlgoKind(kind)),
                        AlgoKind(kind), hp, ds, [(0, 3, 1, 0)], **{given: rows[given]})

    def test_start_model_and_frame_must_match_the_algorithm(self):
        ds, clients, _, hp, backbone, frame = self._setup("fedgela")
        fixed = start_of(backbone, frame, AlgoKind("fedge"))[:2]
        learnable = start_of(backbone, frame, AlgoKind("fedavg"))[:2]
        for kind, start, given in (("fedavg", fixed, frame), ("fedavg", learnable, frame),
                                   ("fedge", learnable, None), ("fedge", fixed, None)):
            with pytest.raises(ValueError, match=f"algo={kind} needs a start model"):
                local_train([clients[0].shard], *start, given, AlgoKind(kind), hp, ds,
                            [(0, 3, 1, 0)])

    @pytest.mark.parametrize("kind,plain_kind", [("fedgela", "fedge"), ("laonly", "fedavg")])
    def test_adapting_algorithm_without_phi_trains_unscaled_on_every_class(self, kind,
                                                                           plain_kind):
        ds, clients, _, hp, backbone, frame = self._setup("fedgela")
        clf = frame if kind == "fedgela" else init_classifier(ds.n_classes, ds.n_classes, seed=5)
        shards, seeds = [c.shard for c in clients], [(0, 3, 1, c.client_id) for c in clients]
        start = start_of(backbone, clf, AlgoKind(kind))
        unscaled, _ = local_train(shards, *start, AlgoKind(kind), hp, ds, seeds)
        plain, _ = local_train(shards, *start, AlgoKind(plain_kind), hp, ds, seeds)
        assert unscaled.tobytes() == plain.tobytes()

    def test_fedprox_positive_lambda_changes_trajectory(self):
        ds, clients, _, hp, backbone, _ = self._setup("fedavg")
        clf = init_classifier(ds.n_classes, ds.n_classes, seed=5)
        res_avg = train([clients[1]], backbone, clf, AlgoKind("fedavg"),
                        hp, ds, [(0, 3, 1, 1)])[0]
        res_prox = train([clients[1]], backbone, clf,
                         AlgoKind("fedprox", lambda_prox=1.0),
                         hp, ds, [(0, 3, 1, 1)])[0]
        assert any(a.tobytes() != b.tobytes() for a, b in
                   zip(res_avg.backbone.tensors(), res_prox.backbone.tensors()))

    @pytest.mark.parametrize("kind,lam", [("fedavg", 0.0), ("fedprox", 0.0), ("fedprox", 0.1),
                                          ("fedge", 0.0), ("fedgela", 0.0), ("laonly", 0.0)])
    def test_only_a_proximal_stack_owns_a_prox_buffer(self, kind, lam, monkeypatch):
        ds, clients, algo, hp, backbone, frame = self._setup(kind, lambda_prox=lam)
        real, stacks = fedsim.flatten, []

        def recording(*args):
            stacks.append(real(*args))
            return stacks[-1]

        monkeypatch.setattr(fedsim, "flatten", recording)
        clf = frame if algo.fixed_classifier else init_classifier(ds.n_classes, ds.n_classes, 5)
        train(clients, backbone, clf, algo, hp, ds, [(0, 3, 1, k) for k in range(4)])
        assert len(stacks) == 1 and len(stacks[0].theta) == 4
        if lam:
            assert stacks[0].prox.shape == stacks[0].theta.shape
        else:
            assert stacks[0].prox is None

    def test_fedgela_learns_its_shard(self):
        # separable two-class shard: 10 epochs reach high train accuracy
        cfg = small_config(algo="fedgela", classes=10, input_dim=12,
                           n_per_class=40, clients=10, classes_per_client=2,
                           epochs=10, class_sep=4.0)
        ds = synth_gaussian_mixture(10, 12, 40, 4.0, 1.0, cfg.data_seed)
        shards = pcdd_partition(ds, PartitionSpec("pcdd", 10, seed=0, classes_per_client=2))
        algo = AlgoKind("fedgela")
        clients = clients_of(shards, 10, algo)
        hp = Hyperparams(lr=0.05, momentum=0.9, weight_decay=1e-4, epochs=10,
                         batch_size=10, e_h=1.0)
        backbone = init_model((12, 16, 10), seed=0)
        frame = make_etf(10, 10, 1, e_w=25.0).classifier
        res = train([clients[0]], backbone, frame, algo, hp, ds, [(0, 3, 1, 0)])[0]
        from fedgela.metrics import predict
        idx = clients[0].shard.train_indices
        pred = predict(forward(res.backbone, ds.features[idx], 1.0), frame,
                       class_mask=clients[0].mask, phi=clients[0].phi)
        assert np.mean(pred == ds.labels[idx]) > 0.95

    def test_empty_train_split_rejected(self):
        ds, clients, algo, hp, backbone, frame = self._setup()
        import dataclasses
        bad_shard = dataclasses.replace(
            clients[0].shard,
            train_indices=np.empty(0, dtype=np.int64),
            test_indices=clients[0].shard.indices,
        )
        clients[0].shard = bad_shard
        with pytest.raises(ValueError, match="empty train split"):
            train([clients[0]], backbone, frame, algo, hp, ds, [(0, 3, 1, 0)])


def init_row(layer_sizes, seed, n_classes=None):
    """init_backbone's row of Layout(layer_sizes, n_classes), its classifier
    drawn from seed + 10."""
    layout = Layout(layer_sizes, n_classes)
    return init_backbone(layout, seed, None if n_classes is None else seed + 10)


class TestAggregate:
    def test_identical_updates_fixed_point(self):
        p = init_row((3, 4), 0)
        np.testing.assert_allclose(aggregate([p, p.copy()], [0.3, 0.7]), p, atol=1e-15)

    def test_equal_weights_midpoint(self):
        a, b = init_row((3, 4), 0), init_row((3, 4), 1)
        np.testing.assert_allclose(aggregate([a, b], [0.5, 0.5]), (a + b) / 2.0, atol=1e-15)

    def test_single_client_identity(self):
        p = init_row((3, 4), 2)
        np.testing.assert_array_equal(aggregate([p], [1.0]), p)

    def test_permutation_invariant(self):
        rows = [init_row((4, 5), s) for s in range(3)]
        w = [0.2, 0.3, 0.5]
        out1 = aggregate(rows, w)
        out2 = aggregate([rows[2], rows[0], rows[1]], [0.5, 0.2, 0.3])
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_permuting_rows_with_weights_changes_at_most_rounding(self):
        rows = np.stack([init_row((4, 6, 3), s, n_classes=5) for s in range(7)])
        w = np.random.default_rng(0).uniform(0.1, 1.0, len(rows))
        w /= w.sum()
        base = aggregate(rows, w)
        want = w[0] * rows[0]   # the left-to-right reference sum
        for i in range(1, len(rows)):
            want = want + w[i] * rows[i]
        assert base.tobytes() == want.tobytes()
        scale = w @ np.abs(rows)   # what the rounding of each sum is relative to
        for seed in range(10):
            perm = np.random.default_rng(seed).permutation(len(rows))
            got = aggregate(rows[perm], w[perm])
            np.testing.assert_array_less(np.abs(got - base), 1e-12 * scale + 1e-300)

    def test_bad_weights(self):
        p = init_row((3, 4), 0)
        with pytest.raises(ValueError, match="sum to 1"):
            aggregate([p, p.copy()], [0.5, 0.6])

    def test_shape_mismatch(self):
        a, b = init_row((3, 4), 0), init_row((3, 5), 0)
        with pytest.raises(ValueError, match="shape mismatch"):
            aggregate([a, b], [0.5, 0.5])

    def test_learnable_models_average_backbone_and_classifier_in_one_pass(self):
        layout = Layout((3, 5, 4), n_classes=3)
        parts = [init_row(layout.layer_sizes, s, n_classes=3) for s in range(3)]
        w = np.array([0.2, 0.3, 0.5])
        out = aggregate(np.stack(parts), w)
        # the per-tensor reduction w0*t0 + w1*t1 + ..., in list order
        tensors = [Model.of(layout, p).tensors() for p in parts]
        got = layout.views(out)
        for j, t in enumerate(got.weights + got.biases + [got.classifier]):
            want = w[0] * tensors[0][j]
            for i in range(1, len(parts)):
                want = want + w[i] * tensors[i][j]
            assert t.tobytes() == want.tobytes()
        assert np.shares_memory(got.classifier, out)

    def test_learnable_and_fixed_frame_models_rejected(self):
        learnable = init_row((3, 5, 4), 0, n_classes=3)
        fixed = init_row((3, 5, 4), 1)
        with pytest.raises(ValueError, match="shape mismatch"):
            aggregate([learnable, fixed], [0.5, 0.5])
        with pytest.raises(ValueError, match="shape mismatch"):
            aggregate([fixed, learnable], [0.5, 0.5])

    def test_one_round_equals_centralized_step(self):
        # K = N, one full-batch step, no momentum/decay: the aggregated
        # update equals one weighted-gradient step on the union objective
        ds = synth_gaussian_mixture(2, 4, 4, 4.0, 0.5, seed=0)
        from fedgela.datagen import make_client_shard
        rng = np.random.default_rng(0)
        shard_a = make_client_shard(ds, 0, np.arange(0, 4), 0.0, rng)
        shard_b = make_client_shard(ds, 1, np.arange(4, 8), 0.0, rng)
        algo = AlgoKind("fedge")
        clients = clients_of([shard_a, shard_b], 2, algo)
        hp = Hyperparams(lr=0.1, momentum=0.0, weight_decay=0.0, epochs=1,
                         batch_size=100, e_h=1.0)
        backbone = init_model((4, 6, 2), seed=3)
        frame = make_etf(2, 2, 0, e_w=1.0).classifier
        res = [train([c], backbone, frame, algo, hp, ds, [(9, 9, 9, c.client_id)])[0]
               for c in clients]
        weights = np.array([4.0, 4.0]) / 8.0
        agg = aggregate([r.row for r in res], weights)
        # centralized comparator: analytic single step on the union mean loss
        from reference_ops import backward, forward, sgd_step, OptimizerState
        central = clone(backbone)
        fb, cache = forward(central, ds.features, 1.0)
        grads = backward(cache, ds.labels, frame=frame)
        sgd_step(central, grads, OptimizerState.for_params(central, 0.1, 0.0, 0.0))
        np.testing.assert_allclose(agg, central.row(), rtol=0, atol=1e-12)


def advance(state, rounds):
    """`rounds` steps of state, each even round evaluated as run_federation
    evaluates with eval_every = 2."""
    for _ in range(rounds):
        log = step(state)
        if log.round % 2 == 0:
            log.record(evaluate(state))


class TestRunState:
    @pytest.mark.parametrize("algo,lam", [("fedavg", 0.0), ("fedprox", 0.1), ("fedge", 0.0),
                                          ("fedgela", 0.0), ("laonly", 0.0)])
    def test_a_copy_after_round_3_continues_bitwise(self, algo, lam):
        # one client per round, so some client is untrained at the copy, and
        # an evaluation on either side of it
        cfg = small_config(algo=algo, lambda_prox=lam, clients_per_round=1, rounds=6,
                           eval_every=2)
        whole = run_federation(cfg)
        state = init_state(cfg)
        advance(state, 3)
        assert not state.trained.all()
        copied = copy.deepcopy(state)
        for resumed in (state, copied):
            advance(resumed, 3)
            assert resumed.round == whole.round == 6
            assert pickle.dumps(resumed.logs) == pickle.dumps(whole.logs)
            assert resumed.server_theta.tobytes() == whole.server_theta.tobytes()
            assert resumed.client_theta.tobytes() == whole.client_theta.tobytes()
            assert resumed.trained.tolist() == whole.trained.tolist()
        assert whole.logs[-1].ga is not None

    def test_rows_start_untrained(self):
        cfg = small_config(algo="fedavg")
        state = init_state(cfg)
        inputs = state.inputs
        assert state.round == 0 and state.logs == []
        assert inputs.layout == Layout((cfg.input_dim, 16, cfg.classes), cfg.classes)
        init = init_backbone(inputs.layout, (cfg.seed, 1), (cfg.seed, 1, 1))
        assert state.server_theta.tobytes() == init.tobytes()
        assert state.client_theta.shape == (cfg.clients, inputs.layout.size)
        assert not state.trained.any()
        assert inputs.phi is None and inputs.mask is None and inputs.frame is None

    def test_step_weights_the_server_row_by_n_k(self):
        # the FedAvg weighting: sum over participants of n_k / n * row_k, on
        # shards of unequal size
        state = init_state(small_config(algo="fedavg", clients=5, clients_per_round=3,
                                        rounds=1))
        ids = list(step(state).participants)
        n_k = np.array([state.inputs.shards[i].n_k for i in ids], dtype=np.float64)
        assert len(set(n_k)) > 1
        w = n_k / n_k.sum()
        want = w[0] * state.client_theta[ids[0]]
        for wk, i in zip(w[1:], ids[1:]):
            want = want + wk * state.client_theta[i]
        assert state.server_theta.tobytes() == want.tobytes()

    def test_step_runs_the_next_round(self):
        state = init_state(small_config(algo="fedavg", rounds=3))
        assert [step(state).round for _ in range(3)] == [1, 2, 3]
        assert state.round == 3 and [log.round for log in state.logs] == [1, 2, 3]

    @pytest.mark.parametrize("algo", ["fedavg", "fedgela"])
    def test_step_does_not_evaluate_and_evaluate_does_not_step(self, algo):
        cfg = small_config(algo=algo, clients_per_round=2, rounds=3)
        whole = run_federation(cfg)
        state = init_state(cfg)
        for _ in range(3):
            assert step(state).ga is None
        before = copy.deepcopy(state)
        report = evaluate(state)
        assert pickle.dumps(state) == pickle.dumps(before)
        assert [report.ga, report.pa] == [whole.logs[-1].ga, whole.logs[-1].pa]
        state.logs[-1].record(report)
        assert pickle.dumps(state.logs[-1]) == pickle.dumps(whole.logs[-1])


class TestRunFederation:
    def test_zero_rounds(self):
        cfg = small_config(rounds=0)
        result = run_federation(cfg)
        assert result.logs == []
        assert result.round == 0

    def test_single_client_equals_centralized(self):
        cfg = small_config(algo="fedavg", clients=1, classes_per_client=4,
                           rounds=2, epochs=3)
        result = run_federation(cfg)
        server = server_of(result)
        # replay: same init, same shard, sequential local training
        ds, shards = result.inputs.dataset, result.inputs.shards
        algo = AlgoKind("fedavg")
        clients = clients_of(shards, ds.n_classes, algo)
        hp = Hyperparams(lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay,
                         epochs=cfg.epochs, batch_size=cfg.batch_size, e_h=cfg.e_h)
        backbone = init_model((cfg.input_dim,) + cfg.hidden + (ds.n_classes,),
                              (cfg.seed, 1))
        clf = init_classifier(ds.n_classes, ds.n_classes, (cfg.seed, 1, 1))
        for t in (1, 2):
            res = train([clients[0]], backbone, clf, algo, hp, ds,
                        [(cfg.seed, 3, t, 0)])[0]
            backbone, clf = res.backbone, res.classifier
        for a, b in zip(server.backbone.tensors(), backbone.tensors()):
            assert a.tobytes() == b.tobytes()
        assert server.classifier.tobytes() == clf.tobytes()

    def test_fixed_classifier_conserved_bitwise(self):
        cfg = small_config(algo="fedgela", rounds=3)
        result = run_federation(cfg)
        frame = result.inputs.frame
        fresh = make_etf(cfg.classes, cfg.classes, (cfg.seed, 5), e_w=cfg.e_w)
        assert frame.shape == (cfg.classes, cfg.classes)
        assert frame.tobytes() == fresh.classifier.tobytes()

    def test_fedgela_reduces_to_fedge_on_uniform_clients(self):
        # every client exactly uniform over all classes -> phi == 1 and the
        # trajectories coincide bit for bit
        kw = dict(classes=4, clients=4, classes_per_client=4, rounds=2, epochs=2)
        logs_gela = run_federation(small_config(algo="fedgela", **kw)).logs
        logs_ge = run_federation(small_config(algo="fedge", **kw)).logs
        for a, b in zip(logs_gela, logs_ge):
            assert a.ga == b.ga
            assert a.global_mean_angle == b.global_mean_angle
            assert a.mean_train_loss == b.mean_train_loss

    def test_deterministic_logs(self):
        cfg = small_config(rounds=2)
        a = run_federation(cfg).logs
        b = run_federation(cfg).logs
        for la, lb in zip(a, b):
            assert (la.ga, la.pa, la.mean_train_loss) == (lb.ga, lb.pa, lb.mean_train_loss)

    def test_last_round_evaluated_off_the_schedule(self):
        # rounds % eval_every != 0: rounds 2 and 4 on the schedule, and 5 as
        # the last
        logs = run_federation(small_config(rounds=5, eval_every=2)).logs
        assert [log.ga is not None for log in logs] == [False, True, False, True, True]
        assert logs[-1].pa is not None and logs[-1].global_mean_angle is not None

    def test_partial_participation(self):
        cfg = small_config(clients=4, clients_per_round=2, rounds=3)
        result = run_federation(cfg)
        for log in result.logs:
            assert len(log.participants) == 2

    @pytest.mark.parametrize("algo", ["fedgela", "laonly"])
    @pytest.mark.parametrize("rounds", [1, 2])
    def test_pa_scores_local_model_else_global(self, algo, rounds, monkeypatch):
        # one client per round: after round 2, client 2 holds its round-1
        # model, client 3 this round's and clients 0 and 1 never trained
        scored = []
        real = metrics.evaluate

        def spy(layout, frame, global_row, personal, phi, mask, *args):
            scored.append((frame, list(zip(personal, phi, mask))))
            return real(layout, frame, global_row, personal, phi, mask, *args)

        monkeypatch.setattr(metrics, "evaluate", spy)
        cfg = small_config(algo=algo, clients=4, clients_per_round=1, rounds=rounds)
        result = run_federation(cfg)
        inputs = result.inputs
        trained = {i for log in result.logs for i in log.participants}
        assert 0 < len(trained) < len(inputs.shards)
        assert np.flatnonzero(result.trained).tolist() == sorted(trained)
        frame, got = scored[-1]
        if algo == "fedgela":
            assert frame is inputs.frame and inputs.layout.n_classes is None
        else:   # each laonly row carries its own learnable classifier
            assert frame is None and inputs.layout.n_classes == cfg.classes
        personal = []
        for i, (row, phi, mask) in enumerate(got):
            want = result.client_theta[i] if i in trained else result.server_theta
            # the rows' bytes, since a tiny test split often scores two models alike
            assert row.tobytes() == want.tobytes()
            assert phi.tobytes() == inputs.phi[i].tobytes()
            assert np.array_equal(mask, inputs.mask[i])
            model = inputs.layout.views(want)
            personal.append((model, model.classifier if frame is None else frame, phi, mask))
        features = [forward(bb, inputs.dataset.features[s.test_indices], cfg.e_h)
                    for (bb, *_), s in zip(personal, inputs.shards)]
        pa, _ = personal_accuracy([(f, *m[1:]) for f, m in zip(features, personal)],
                                  inputs.shards, inputs.dataset)
        assert result.logs[-1].pa == pa

    @pytest.mark.parametrize("algo,lam", [("fedavg", 0.0), ("fedprox", 0.1), ("laonly", 0.0)])
    def test_learnable_classifier_needs_no_frame_width(self, algo, lam):
        # feature_dim < classes: no simplex frame fits, but these never use one
        result = run_federation(small_config(algo=algo, lambda_prox=lam, feature_dim=3))
        assert result.logs[-1].ga is not None
        assert server_of(result).classifier.shape == (3, 4)

    def test_learnable_classifier_aggregated(self):
        cfg = small_config(algo="fedavg", rounds=2)
        result = run_federation(cfg)
        server = server_of(result)
        assert isinstance(server.classifier, np.ndarray)
        assert server.classifier.shape == (cfg.classes, cfg.classes)

    def test_alternative_phi_maps_run(self):
        # exp/sqrt class-fraction maps give nonzero weight to missing classes;
        # the restricted mask still carries the exclusion
        for q_kind in ("exp", "sqrt"):
            cfg = small_config(algo="fedgela", rounds=2, q_kind=q_kind)
            result = run_federation(cfg)
            assert result.logs[-1].ga is not None
            inputs = result.inputs
            for shard, phi, mask in zip(inputs.shards, inputs.phi, inputs.mask):
                missing = shard.counts == 0
                if q_kind == "exp" and missing.any():
                    assert np.all(phi[missing] > 0)
                assert np.array_equal(mask, ~missing)


class TestEvaluationForwardsOnce:
    @pytest.mark.parametrize("algo", ["fedgela", "fedavg"])
    def test_each_model_and_split_forwarded_once(self, algo, monkeypatch):
        # per evaluation: the global model on the global test set, each
        # client's personal model on its test split, and each participant's
        # local model unless it is that very personal model (fedgela)
        calls = []
        real_forward = metrics.forward

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(metrics, "forward", counting)
        cfg = small_config(algo=algo, clients=4, clients_per_round=2, rounds=3, eval_every=1)
        run_federation(cfg)
        unshared = 0 if algo == "fedgela" else cfg.clients_per_round
        assert len(calls) == cfg.rounds * (1 + cfg.clients + unshared)

    @pytest.mark.parametrize("algo", ["fedavg", "fedge"])
    def test_local_angle_scores_local_model_not_finetune(self, algo):
        cfg = small_config(algo=algo, clients=4, clients_per_round=2, rounds=2)
        result = run_federation(cfg)
        inputs, last = result.inputs, result.logs[-1]
        ds, test = inputs.dataset, inputs.global_test
        models = {i: inputs.layout.views(result.client_theta[i]) for i in last.participants}
        local = [(inputs.shards[i], forward(m, ds.features[inputs.shards[i].test_indices],
                                            cfg.e_h), m.classifier) for i, m in models.items()]
        report = angle_report(forward(server_of(result).backbone, ds.features[test], cfg.e_h),
                              ds, test, local)
        assert last.local_exist_angle is not None
        # a learnable classifier (fedavg) has both classifier angles: each
        # client misses 2 of the 4 classes
        assert (report.clf_miss_angle is not None) == (algo == "fedavg")
        assert (report.clf_exist_angle is not None) == (algo == "fedavg")
        for name in ("global_mean_angle", "local_exist_angle", "clf_exist_angle",
                     "clf_miss_angle"):
            assert getattr(last, name) == getattr(report, name), name


class TestRunMany:
    """run_many's placement and ordering, with run_federation replaced by a
    stand-in that reports the process it ran in."""

    @pytest.fixture(autouse=True)
    def _stand_in(self, monkeypatch):
        def run(config):
            if config == "slow":
                time.sleep(0.3)
                raise FileNotFoundError(2, "No such file or directory", "slow.csv")
            if config == "fast":
                raise FloatingPointError("fast")
            return types.SimpleNamespace(logs=os.getpid(),
                                         inputs=types.SimpleNamespace(dataset=config))

        monkeypatch.setattr(fedsim, "run_federation", run)
        monkeypatch.setattr(fedsim, "dataset_sha256", str)   # the config's name as digest

    @pytest.mark.parametrize("cpus, methods, pooled", [
        ({0}, None, False),
        ({0, 1}, None, True),
        ({0, 1}, ["spawn"], False),
    ])
    def test_placement_and_order(self, monkeypatch, cpus, methods, pooled):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        if methods is not None:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        out = list(run_many(["a", "b", "c"]))
        assert [config for _, config in out] == ["a", "b", "c"]
        assert [pid != os.getpid() for pid, _ in out] == [pooled] * 3

    def test_cpu_count_without_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert [pid for pid, _ in run_many(["a", "b"])] == [os.getpid()] * 2

    def test_first_failure_in_input_order_raises_its_own_error(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        results = run_many(["a", "slow", "fast"])
        assert next(results)[1] == "a"
        with pytest.raises(FileNotFoundError) as info:
            next(results)
        assert str(info.value) == "[Errno 2] No such file or directory: 'slow.csv'"


class TestFinetunePersonalize:
    def _run(self, algo="fedavg"):
        cfg = small_config(algo=algo, rounds=2, epochs=2)
        return cfg, run_federation(cfg)

    def test_zero_epochs_unchanged(self):
        cfg, result = self._run()
        server = server_of(result)
        res = finetune(server.backbone, server.classifier,
                       [result.inputs.shards[0]], AlgoKind("fedavg"),
                       Hyperparams(lr=cfg.lr, epochs=2, batch_size=10),
                       0, result.inputs.dataset, [(0, 4, 1, 0)])[0]
        for a, b in zip(res.backbone.tensors(), server.backbone.tensors()):
            np.testing.assert_array_equal(a, b)

    def test_finetune_shuffles_apart_from_the_rounds_training(self, monkeypatch):
        # the PA fine-tune of round t draws its batches from a stream of its
        # own, not from the one round t trained its participants on
        cfg = small_config(algo="fedavg", clients_per_round=2, rounds=1)
        state = init_state(cfg)
        real, seeds = fedsim.local_train, []

        def recording(*args):
            seeds.append({tuple(s) for s in args[7]})   # seed_parts
            return real(*args)

        monkeypatch.setattr(fedsim, "local_train", recording)
        step(state)
        evaluate(state)
        trained, tuned = seeds
        assert len(trained) == cfg.clients_per_round and len(tuned) == cfg.clients
        assert not trained & tuned

    def test_finetuning_rarely_hurts_on_shard(self):
        from fedgela.metrics import predict
        deltas = []
        for seed in (0, 1, 2):
            cfg = small_config(algo="fedavg", rounds=3, epochs=2, seed=seed,
                               classes=10, clients=5, classes_per_client=2,
                               n_per_class=30, input_dim=12)
            result = run_federation(cfg)
            ds, server = result.inputs.dataset, server_of(result)
            hp = Hyperparams(lr=cfg.lr, momentum=cfg.momentum,
                             weight_decay=cfg.weight_decay, epochs=cfg.epochs,
                             batch_size=cfg.batch_size, e_h=cfg.e_h)
            for shard in result.inputs.shards:
                idx = shard.test_indices
                before = np.mean(predict(forward(server.backbone, ds.features[idx], cfg.e_h),
                                         server.classifier) == ds.labels[idx])
                res = finetune(server.backbone, server.classifier,
                               [shard], AlgoKind("fedavg"), hp, 10,
                               ds, [(seed, 4, 99, shard.client_id)])[0]
                after = np.mean(predict(forward(res.backbone, ds.features[idx], cfg.e_h),
                                        res.classifier) == ds.labels[idx])
                deltas.append(after - before)
        assert np.mean(deltas) > -0.01

    def test_full_dataset_shard_pa_matches_ga(self):
        cfg = small_config(algo="fedgela", clients=1, classes_per_client=4,
                           rounds=2, epochs=2)
        result = run_federation(cfg)
        final = result.logs[-1]
        assert abs(final.pa - final.ga) < 1e-12  # same split, same model


class TestRoundCsv:
    def test_round_trip_exact(self, tmp_path):
        cfg = small_config(rounds=2, eval_every=2)
        logs = run_federation(cfg).logs
        path = tmp_path / "rounds.csv"
        write_round_csv(logs, path)
        rows = read_round_csv(path)
        assert len(rows) == len(logs)
        for row, log in zip(rows, logs):
            assert row["round"] == log.round
            assert row["algo"] == log.algo
            for col in ("ga", "pa", "global_mean_angle", "local_exist_angle",
                        "clf_exist_angle", "clf_miss_angle", "mean_train_loss"):
                assert row[col] == getattr(log, col)


def reference_local_train(client, backbone, classifier, algo, hp, ds, seed_parts):
    """local_train's loop written with the public per-batch ops:
    forward -> logits -> ce_loss -> backward -> (+ prox) -> sgd_step.
    Returns the trained backbone, classifier (None for a fixed frame) and
    epoch losses."""
    from reference_ops import (OptimizerState, backward, ce_loss, forward,
                               logits, sgd_step)
    learnable = not algo.fixed_classifier
    model = clone(Model(backbone.weights, backbone.biases, classifier if learnable else None))
    frame = None if learnable else classifier
    eff = model.classifier if learnable else frame
    refs = [t.copy() for t in model.tensors()] if algo.lambda_prox > 0 else None
    state = OptimizerState.for_params(model, hp.lr, hp.momentum, hp.weight_decay)
    phi = client.phi if algo.adapts_phi else None
    mask = client.mask if algo.adapts_phi else None
    idx = client.shard.train_indices
    epoch_losses = []
    for epoch in range(hp.epochs):
        shuffled = idx[np.random.default_rng(tuple(seed_parts) + (epoch,)).permutation(idx.size)]
        losses = []
        for start in range(0, idx.size, hp.batch_size):
            batch = shuffled[start:start + hp.batch_size]
            fb, cache = forward(model, ds.features[batch], hp.e_h)
            losses.append(ce_loss(logits(fb, eff, phi), ds.labels[batch], mask))
            grads = backward(cache, ds.labels[batch], phi, mask, frame=frame)
            if refs is not None:
                for g, t, r in zip(grads.tensors(), model.tensors(), refs):
                    g += algo.lambda_prox * (t - r)
            sgd_step(model, grads, state)
        epoch_losses.append(float(np.mean(losses)))
    return Model(model.weights, model.biases), model.classifier, epoch_losses


class TestFusedStepMatchesPublicOps:
    """local_train (flat buffer, fused step) against the public ops, bitwise."""

    ALGOS = [("fedavg", 0.0), ("fedprox", 0.1), ("fedge", 0.0), ("fedgela", 0.0),
             ("laonly", 0.0)]

    def _setup(self, kind, lam, hidden):
        ds = synth_gaussian_mixture(5, 6, 23, 3.0, 1.0, seed=3)
        shards = pcdd_partition(ds, PartitionSpec("pcdd", 3, seed=4, classes_per_client=3))
        algo = AlgoKind(kind, lambda_prox=lam)
        clients = clients_of(shards, ds.n_classes, algo)
        hp = Hyperparams(lr=0.05, momentum=0.9, weight_decay=1e-3, epochs=3,
                         batch_size=7, e_h=4.0)
        backbone = init_model((6,) + hidden + (8,), seed=5)
        if algo.fixed_classifier:
            classifier = make_etf(8, 5, 6, e_w=2.0).classifier
        else:
            classifier = init_classifier(8, 5, seed=7)
        return ds, clients, algo, hp, backbone, classifier

    def _assert_same(self, res, ref):
        bb, clf, losses = ref
        assert len(res.backbone.tensors()) == len(bb.tensors())
        for a, b in zip(res.backbone.tensors(), bb.tensors()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        if clf is None:
            assert res.classifier is None
        else:
            assert res.classifier.tobytes() == clf.tobytes()
        assert res.epoch_losses == losses

    @pytest.mark.parametrize("hidden", [(16,), (12, 9)])
    @pytest.mark.parametrize("kind,lam", ALGOS)
    def test_local_train_bitwise(self, kind, lam, hidden):
        ds, clients, algo, hp, backbone, classifier = self._setup(kind, lam, hidden)
        client = clients[1]
        assert client.shard.train_indices.size % hp.batch_size != 0  # partial last batch
        res = train([client], backbone, classifier, algo, hp, ds, [(2, 3, 1, 1)])[0]
        ref = reference_local_train(client, backbone, classifier, algo, hp, ds,
                                    (2, 3, 1, 1))
        self._assert_same(res, ref)

    @pytest.mark.parametrize("kind,lam", ALGOS)
    def test_multi_word_master_seed_bitwise(self, kind, lam):
        # a master seed of two 32-bit words, with the reference seeding from the tuple
        ds, clients, algo, hp, backbone, classifier = self._setup(kind, lam, (16,))
        seed_parts = (2**32 + 2, 3, 1, 1)
        res = train([clients[1]], backbone, classifier, algo, hp, ds, [seed_parts])[0]
        self._assert_same(res, reference_local_train(clients[1], backbone, classifier, algo,
                                                     hp, ds, seed_parts))

    @pytest.mark.parametrize("hidden", [(16,), (12, 9)])
    @pytest.mark.parametrize("kind,lam", [("fedavg", 0.0), ("fedprox", 0.1), ("fedge", 0.0)])
    def test_finetune_personalize_bitwise(self, kind, lam, hidden):
        ds, clients, algo, hp, backbone, classifier = self._setup(kind, lam, hidden)
        shard = clients[2].shard
        res = finetune(backbone, classifier, [shard], algo, hp, 2, ds, [(2, 4, 1, 2)])[0]
        plain = types.SimpleNamespace(client_id=shard.client_id, shard=shard, phi=None,
                                      mask=np.ones(ds.n_classes, dtype=bool))
        ref = reference_local_train(plain, backbone, classifier, algo,
                                    Hyperparams(lr=hp.lr, momentum=hp.momentum,
                                                weight_decay=hp.weight_decay, epochs=2,
                                                batch_size=hp.batch_size, e_h=hp.e_h),
                                    ds, (2, 4, 1, 2))
        self._assert_same(res, ref)

    def test_rows_are_one_new_matrix(self):
        ds, clients, algo, hp, backbone, classifier = self._setup("fedavg", 0.0, (16,))
        layout, start, _ = start_of(backbone, classifier, algo)
        rows, _ = local_train([c.shard for c in clients], layout, start, None, algo, hp, ds,
                              [(2, 3, 1, c.client_id) for c in clients])
        assert rows.shape == (len(clients), layout.size)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        for given in (start, classifier, *backbone.tensors()):
            assert not np.shares_memory(rows, given)


class TestSeedWords:
    """fedsim._seed_words against numpy's own reading of a seed tuple."""

    EDGES = (0, 2**32 - 1, 2**32, 2**64 + 5)

    def test_words_draw_what_the_tuple_draws(self):
        rng = np.random.default_rng(0)
        tuples = [(edge,) for edge in self.EDGES] + [(6, 3, 1, np.int64(2), 0)]
        for _ in range(300):
            tuples.append(tuple(self.EDGES[rng.integers(4)] if rng.random() < 0.5
                                else int(rng.integers(0, 2**40))
                                for _ in range(rng.integers(1, 6))))
        for parts in tuples:
            words = fedsim._seed_words(parts)
            assert words.dtype == np.uint32
            assert np.array_equal(np.random.default_rng(words).permutation(40),
                                  np.random.default_rng(parts).permutation(40)), parts

    def test_negative_part_rejected_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng((1, -1))
        with pytest.raises(ValueError, match="non-negative, got -1"):
            fedsim._seed_words((1, -1))


class TestNumericFailuresNameClient:
    @pytest.mark.parametrize("value,bad_client,match", [
        (np.inf, 2, "numeric overflow: non-finite activation in layer 0"),
        (0.0, 1, "degenerate feature"),
    ])
    def test_message_names_round_and_client(self, value, bad_client, match):
        from fedgela.datagen import Dataset
        from fedgela.fedsim import build_dataset, build_partition
        cfg = small_config(algo="fedgela", rounds=1)
        ds = build_dataset(cfg)
        shards = build_partition(ds, cfg)
        features = ds.features.copy()
        if value == 0.0:
            # every train row of the client zero: the zero-bias initial net
            # maps them to a zero feature on the first step
            features[shards[bad_client].train_indices] = 0.0
        else:
            features[shards[bad_client].train_indices[0]] = value
        bad = Dataset(features=features, labels=ds.labels, n_classes=ds.n_classes)
        with np.errstate(invalid="ignore"), pytest.raises(
                FloatingPointError, match=rf"^round 1: client {bad_client}: {match}"):
            run_federation(cfg, dataset=bad, shards=shards)

    def _first_shuffle(self, cfg, shard):
        """Train indices of the shard in its round-1, epoch-0 batch order."""
        idx = shard.train_indices
        return idx[np.random.default_rng((cfg.seed, 3, 1, shard.client_id, 0))
                   .permutation(idx.size)]

    def test_lower_client_failing_later_is_named(self):
        # client 2 fails in its first batch, client 1 only in its last; trained
        # one after another, client 1 fails first
        from fedgela.datagen import Dataset
        from fedgela.fedsim import build_dataset, build_partition
        cfg = small_config(algo="fedgela", rounds=1)
        ds = build_dataset(cfg)
        shards = build_partition(ds, cfg)
        features = ds.features.copy()
        late = self._first_shuffle(cfg, shards[1])
        assert late.size > cfg.batch_size
        features[late[-1]] = np.inf
        features[self._first_shuffle(cfg, shards[2])[0]] = 0.0
        features[self._first_shuffle(cfg, shards[2])[1:]] = np.inf
        bad = Dataset(features=features, labels=ds.labels, n_classes=ds.n_classes)
        with np.errstate(invalid="ignore"), pytest.raises(
                FloatingPointError,
                match=r"^round 1: client 1: numeric overflow: non-finite activation "
                      r"in layer 0$"):
            run_federation(cfg, dataset=bad, shards=shards)

    def test_degenerate_row_is_indexed_within_the_client_batch(self):
        from fedgela.datagen import Dataset
        from fedgela.fedsim import build_dataset, build_partition
        cfg = small_config(algo="fedgela", rounds=1)
        ds = build_dataset(cfg)
        shards = build_partition(ds, cfg)
        features = ds.features.copy()
        features[self._first_shuffle(cfg, shards[3])[4]] = 0.0
        bad = Dataset(features=features, labels=ds.labels, n_classes=ds.n_classes)
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(
                FloatingPointError,
                match=r"^round 1: client 3: degenerate feature: row 4 has norm 0 < 1e-12$"):
            run_federation(cfg, dataset=bad, shards=shards)


    def test_numeric_failure_before_a_later_empty_split(self):
        # the stack rejects client 2's empty train split before any step, but
        # trained one after another, client 1 overflows first
        import dataclasses
        from fedgela.datagen import Dataset
        ds, clients, algo, hp, backbone, frame = TestLocalTrain()._setup()
        features = ds.features.copy()
        features[clients[1].shard.train_indices[0]] = np.inf
        bad = Dataset(features=features, labels=ds.labels, n_classes=ds.n_classes)
        clients[2].shard = dataclasses.replace(
            clients[2].shard, train_indices=np.empty(0, dtype=np.int64),
            test_indices=clients[2].shard.indices)
        with np.errstate(invalid="ignore"), pytest.raises(
                FloatingPointError,
                match=r"^client 1: numeric overflow: non-finite activation in layer 0$"):
            train(clients[:3], backbone, frame, algo, hp, bad,
                  [(0, 3, 1, c.client_id) for c in clients[:3]])

    def test_pa_finetune_failure_names_round(self):
        # a client that round 1 does not sample fails only in the PA fine-tune
        from fedgela.datagen import Dataset
        from fedgela.fedsim import build_dataset, build_partition
        cfg = small_config(algo="fedavg", clients_per_round=2, rounds=1)
        ds = build_dataset(cfg)
        shards = build_partition(ds, cfg)
        # round 1's draw from the sampling stream (tag 2)
        sampled = sample_clients(cfg.clients, cfg.clients_per_round, (cfg.seed, 2, 1))
        idle = min(set(range(cfg.clients)) - set(sampled.tolist()))
        features = ds.features.copy()
        features[shards[idle].train_indices[0]] = np.inf
        bad = Dataset(features=features, labels=ds.labels, n_classes=ds.n_classes)
        with np.errstate(invalid="ignore"), pytest.raises(
                FloatingPointError,
                match=rf"^round 1: client {idle}: numeric overflow: non-finite "
                      rf"activation in layer 0$"):
            run_federation(cfg, dataset=bad, shards=shards)


class TestStackedMatchesSingle:
    """One local_train call over many clients (stacked models) against one
    call per client, bitwise, on ragged Dirichlet shards."""

    ALGOS = TestFusedStepMatchesPublicOps.ALGOS

    def _setup(self, kind, lam, hidden):
        ds = synth_gaussian_mixture(5, 6, 30, 3.0, 1.0, seed=8)
        shards = dirichlet_partition(ds, PartitionSpec("dirichlet", 6, seed=2, beta=0.5,
                                                       min_size=5))
        algo = AlgoKind(kind, lambda_prox=lam)
        clients = clients_of(shards, ds.n_classes, algo)
        hp = Hyperparams(lr=0.05, momentum=0.9, weight_decay=1e-3, epochs=2,
                         batch_size=7, e_h=4.0)
        backbone = init_model((6,) + hidden + (8,), seed=5)
        if algo.fixed_classifier:
            classifier = make_etf(8, 5, 6, e_w=2.0).classifier
        else:
            classifier = init_classifier(8, 5, seed=7)
        sizes = [c.shard.train_indices.size for c in clients]
        assert any(n % hp.batch_size for n in sizes)               # partial last batches
        assert len({-(-n // hp.batch_size) for n in sizes}) > 1    # epochs end at different steps
        assert sizes != sorted(sizes, reverse=True)                # stacking reorders them
        return ds, clients, algo, hp, backbone, classifier

    _assert_same_as_ref = TestFusedStepMatchesPublicOps._assert_same

    def _assert_same(self, res, other):
        self._assert_same_as_ref(res, (other.backbone, other.classifier,
                                       other.epoch_losses))

    @pytest.mark.parametrize("hidden", [(16,), (120, 100)])
    @pytest.mark.parametrize("kind,lam", ALGOS)
    def test_local_train_list_equals_one_by_one(self, kind, lam, hidden):
        from fedgela import fedsim
        ds, clients, algo, hp, backbone, classifier = self._setup(kind, lam, hidden)
        n_params = sum(t.size for t in backbone.tensors())
        n_params += 0 if algo.fixed_classifier else classifier.size
        if hidden == (120, 100):   # the row cap splits the clients into several stacks
            assert fedsim.STACK_ELEMENTS // n_params < len(clients)
        seeds = [(4, 3, 1, c.client_id) for c in clients]
        stacked = train(clients, backbone, classifier, algo, hp, ds, seeds)
        assert len(stacked) == len(clients)
        for c, s, res in zip(clients, seeds, stacked):
            self._assert_same(res, train([c], backbone, classifier, algo, hp, ds, [s])[0])
        self._assert_same_as_ref(stacked[0], reference_local_train(
            clients[0], backbone, classifier, algo, hp, ds, seeds[0]))

    @pytest.mark.parametrize("hidden", [(16,), (120, 100)])
    @pytest.mark.parametrize("kind,lam", [("fedavg", 0.0), ("fedprox", 0.1), ("fedge", 0.0)])
    def test_finetune_personalize_list_equals_one_by_one(self, kind, lam, hidden):
        ds, clients, algo, hp, backbone, classifier = self._setup(kind, lam, hidden)
        shards = [c.shard for c in clients]
        seeds = [(4, 4, 1, s.client_id) for s in shards]
        tuned = finetune(backbone, classifier, shards, algo, hp, 2, ds, seeds)
        for shard, s, res in zip(shards, seeds, tuned):
            self._assert_same(res, finetune(backbone, classifier, [shard], algo,
                                            hp, 2, ds, [s])[0])

    def test_one_seed_per_client_required(self):
        ds, clients, algo, hp, backbone, classifier = self._setup("fedgela", 0.0, (16,))
        with pytest.raises(ValueError, match="one seed_parts per client"):
            train(clients, backbone, classifier, algo, hp, ds, [(0, 3, 1, 0)])


class TestPartitionCheckedBeforeTraining:
    def _no_training(self, monkeypatch):
        from fedgela import fedsim

        def never(*args, **kwargs):
            raise AssertionError("local_train was called")

        monkeypatch.setattr(fedsim, "local_train", never)

    def test_empty_test_split_named_before_round_1(self, tmp_path, monkeypatch):
        from fedgela.cli import main
        self._no_training(monkeypatch)
        sets = {"classes": 10, "n_per_class": 6, "clients": 10, "beta": 0.1,
                "min_size": 1, "rounds": 2}
        with pytest.raises(ValueError, match=r"^client 1 has an empty test split"):
            run_federation(parse_config(sets))
        out = tmp_path / "run"
        argv = sum((["--set", f"{k}={v}"] for k, v in sets.items()), [])
        assert main(["run", *argv, "--set", f"out_dir={out}"]) == 3
        assert not out.exists()

    def test_class_absent_from_global_test_set_named(self, monkeypatch):
        import dataclasses
        from fedgela.fedsim import build_dataset, build_partition
        cfg = small_config()
        ds = build_dataset(cfg)
        shards = []
        for s in build_partition(ds, cfg):
            moved = s.test_indices[ds.labels[s.test_indices] == 0]
            shards.append(dataclasses.replace(
                s, test_indices=np.setdiff1d(s.test_indices, moved),
                train_indices=np.union1d(s.train_indices, moved)))
        assert all(s.test_indices.size for s in shards)
        self._no_training(monkeypatch)
        with pytest.raises(ValueError, match=r"^class 0 is absent from the global test set"):
            run_federation(cfg, dataset=ds, shards=shards)

    @pytest.mark.parametrize("algo", ["fedge", "fedgela"])
    def test_csv_classes_above_feature_dim_named(self, tmp_path, monkeypatch, capsys, algo):
        # a csv's class count must equal `classes`, so the frame rule is a
        # config error, found before the csv is read
        from fedgela.cli import main
        csv_path = tmp_path / "ten.csv"
        assert main(["gen-data", "--set", "classes=10", "--set", "n_per_class=6",
                     "--out", str(csv_path)]) == 0
        self._no_training(monkeypatch)
        out = tmp_path / "run"
        argv = ["run", "--set", "dataset=csv", "--set", f"csv_path={csv_path}",
                "--set", f"algo={algo}", "--set", "feature_dim=5", "--set", f"out_dir={out}"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'feature_dim'" in err and "10 classes of config key 'classes'" in err
        assert not out.exists()

    def test_no_check_without_rounds(self):
        cfg = parse_config({"classes": 10, "n_per_class": 6, "clients": 10, "beta": 0.1,
                            "min_size": 1, "rounds": 0})
        assert run_federation(cfg).logs == []
