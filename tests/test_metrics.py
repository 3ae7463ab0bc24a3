import math

import numpy as np
import pytest

from fedgela.cli import parse_config
from fedgela.datagen import pcdd_partition, synth_gaussian_mixture
from fedgela.diagnostics import nc1_variability
from fedgela.etfgeom import make_etf
from fedgela.fedsim import run_federation
from fedgela.metrics import (
    angle_report,
    generic_accuracy,
    personal_accuracy,
    predict,
)
from fedgela.neuralnet import Layout, forward, init_backbone


def identity_net(d):
    """The (layout, row) of a one-layer net whose weight is the identity."""
    return Layout((d, d)), np.concatenate([np.eye(d).ravel(), np.zeros(d)])


class TestPredict:
    def test_feature_at_own_vertex(self):
        frame = make_etf(4, 4, seed=0)
        params = identity_net(4)
        x = frame[:, 3][None, :] * 5.0  # normalization removes the scale
        assert predict(forward(*params, x, 1.0), frame)[0] == 3

    def test_tie_breaks_to_lowest_index(self):
        params = identity_net(2)
        clf = np.array([[0.0, 1.0, 0.0, 0.0, 1.0],
                        [1.0, 0.0, 1.0, 1.0, 0.0]])
        x = np.array([[1.0, 0.0]])  # logits [0,1,0,0,1]: classes 1 and 4 tie
        assert predict(forward(*params, x, 1.0), clf)[0] == 1

    def test_singleton_mask(self):
        frame = make_etf(4, 4, seed=0)
        params = identity_net(4)
        x = np.random.default_rng(0).standard_normal((6, 4))
        pred = predict(forward(*params, x, 1.0), frame, class_mask=np.arange(4) == 3)
        assert np.all(pred == 3)

    def test_scaling_invariance_of_argmax(self):
        frame = make_etf(4, 4, seed=1)
        params = identity_net(4)
        x = np.random.default_rng(1).standard_normal((10, 4))
        base = predict(forward(*params, x, 1.0), frame)
        scaled = make_etf(4, 4, seed=1, e_w=37.5)
        np.testing.assert_array_equal(predict(forward(*params, x, 1.0), scaled), base)

    def test_phi_changes_ranking(self):
        frame = make_etf(3, 3, seed=0)
        params = identity_net(3)
        x = (frame[:, 0] + frame[:, 1])[None, :]  # between vertices 0 and 1
        phi = np.array([0.1, 5.0, 1.0])
        assert predict(forward(*params, x, 1.0), frame, phi=phi)[0] == 1


class TestAccuracies:
    def test_perfect_model_on_vertices(self):
        frame = make_etf(4, 4, seed=0)
        params = identity_net(4)
        x = frame.T * 3.0
        y = np.arange(4)
        assert generic_accuracy(forward(*params, x, 1.0), frame, y) == 1.0

    def test_constant_predictor_balanced(self):
        params = identity_net(3)
        clf = np.zeros((3, 3))
        clf[0, 0] = 1.0  # class 0 wins whenever feature[0] > 0, ties -> 0
        x = np.tile(np.array([[1.0, 0.3, -0.2]]), (30, 1))
        y = np.repeat(np.arange(3), 10)
        acc = generic_accuracy(forward(*params, x, 1.0), clf, y)
        assert abs(acc - 1.0 / 3.0) < 1e-12

    def test_empty_test_set_rejected(self):
        params = identity_net(3)
        with pytest.raises(ValueError, match="empty test set"):
            generic_accuracy(forward(*params, np.zeros((0, 3)), 1.0), np.eye(3), [])

    def test_personal_accuracy_sample_order_invariant(self):
        ds = synth_gaussian_mixture(4, 6, 30, 4.0, 0.8, seed=0)
        shards = pcdd_partition(ds, 4, classes_per_client=2, seed=0)
        layout = Layout((6, 8, 4))
        params = layout, init_backbone(layout, 0)
        frame = make_etf(4, 4, seed=0)
        models = [(forward(*params, ds.features[s.test_indices], 1.0), frame, None,
                   s.counts > 0) for s in shards]
        pa1, per1 = personal_accuracy(models, shards, ds)
        assert abs(pa1 - np.mean(per1)) < 1e-12
        pa2, _ = personal_accuracy(models, shards, ds)
        assert pa1 == pa2

    def test_missing_model_rejected(self):
        ds = synth_gaussian_mixture(4, 6, 30, 4.0, 0.8, seed=0)
        shards = pcdd_partition(ds, 2, classes_per_client=2, seed=0)
        models = [(None, None, None, None),
                  (forward(*identity_net(6), ds.features[shards[1].test_indices], 1.0),
                   np.eye(6, 4), None, None)]
        with pytest.raises(ValueError, match="missing model"):
            personal_accuracy(models, shards, ds)


class TestAngleReport:
    def _ds_at_vertices(self, frame, n_per_class=10, spread=0.0, seed=0):
        rng = np.random.default_rng(seed)
        c = frame.shape[1]
        labels = np.repeat(np.arange(c), n_per_class)
        x = frame.T[labels] * 4.0
        if spread:
            x = x + spread * rng.standard_normal(x.shape)
        return x, labels

    def test_global_angle_at_frame_vertices(self):
        from fedgela.datagen import Dataset, make_client_shard
        frame = make_etf(5, 5, seed=0)
        x, y = self._ds_at_vertices(frame)
        ds = Dataset(features=x, labels=y, n_classes=5)
        shard = make_client_shard(ds, 0, np.arange(ds.n), 0.4, np.random.default_rng(0))
        params = identity_net(5)
        report = angle_report(forward(*params, x[shard.test_indices], 1.0), ds, shard.test_indices)
        expected = math.degrees(math.acos(-0.25))
        assert abs(report.global_mean_angle - expected) < 1e-6

    def test_single_class_client_skipped(self):
        from fedgela.datagen import Dataset, make_client_shard
        frame = make_etf(4, 4, seed=0)
        x, y = self._ds_at_vertices(frame)
        ds = Dataset(features=x, labels=y, n_classes=4)
        full = make_client_shard(ds, 0, np.arange(ds.n), 0.4, np.random.default_rng(0))
        single = make_client_shard(ds, 1, np.nonzero(y == 2)[0], 0.4,
                                   np.random.default_rng(1))
        params = identity_net(4)
        report = angle_report(
            forward(*params, x[full.test_indices], 1.0), ds, full.test_indices,
            local_entries=[(single, forward(*params, x[single.test_indices], 1.0), None)],
        )
        assert report.local_exist_angle is None
        assert report.skipped_clients == 1

    def test_classifier_angles_split_by_client_classes(self):
        from fedgela.datagen import Dataset, make_client_shard
        frame = make_etf(6, 6, seed=0)
        x, y = self._ds_at_vertices(frame)
        ds = Dataset(features=x, labels=y, n_classes=6)
        shard = make_client_shard(ds, 0, np.nonzero(y <= 1)[0], 0.4,
                                  np.random.default_rng(0))
        global_shard = make_client_shard(ds, 1, np.arange(ds.n), 0.4,
                                         np.random.default_rng(1))
        params = identity_net(6)
        # the existing classes' columns (0 and 1) meet at 60 degrees, the
        # missing classes' columns (2..5) are orthogonal: 90 between each pair
        clf = np.eye(6)
        clf[:, 1] = [0.5, math.sqrt(3) / 2, 0, 0, 0, 0]
        report = angle_report(
            forward(*params, x[global_shard.test_indices], 1.0), ds, global_shard.test_indices,
            local_entries=[(shard, forward(*params, x[shard.test_indices], 1.0), clf)],
        )
        assert abs(report.clf_exist_angle - 60.0) < 1e-9
        assert abs(report.clf_miss_angle - 90.0) < 1e-9

    def test_missing_class_in_global_test_rejected(self):
        from fedgela.datagen import Dataset
        frame = make_etf(4, 4, seed=0)
        x, y = self._ds_at_vertices(frame)
        ds = Dataset(features=x, labels=y, n_classes=4)
        params = identity_net(4)
        only_two = np.nonzero(y <= 1)[0]
        with pytest.raises(ValueError, match="absent"):
            angle_report(forward(*params, x[only_two], 1.0), ds, only_two)


class TestNc1Variability:
    def test_collapsed_features_zero(self):
        f = np.repeat(np.eye(3), 5, axis=0)
        y = np.repeat(np.arange(3), 5)
        assert nc1_variability(f, y) == 0.0

    def test_one_sample_per_class_zero(self):
        f = np.random.default_rng(0).standard_normal((4, 6))
        assert nc1_variability(f, np.arange(4)) == 0.0

    def test_zero_iff_collapsed(self):
        rng = np.random.default_rng(1)
        f = np.repeat(np.eye(3), 5, axis=0)
        y = np.repeat(np.arange(3), 5)
        perturbed = f.copy()
        perturbed[0, 0] += 1e-5
        assert nc1_variability(perturbed, y) > 1e-12
        assert nc1_variability(f, y) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((20, 5))
        y = rng.integers(0, 3, size=20)
        # brute force: average squared distance to own class mean
        expected = 0.0
        for i in range(20):
            mean = f[y == y[i]].mean(axis=0)
            expected += float(np.sum((f[i] - mean) ** 2))
        expected /= 20
        assert abs(nc1_variability(f, y) - expected) < 1e-12


class TestPaVsGaUnderPcdd:
    def test_personal_beats_generic_for_all_algorithms(self):
        # personal tasks are easier than the 10-class global task under
        # class-disjoint shards
        for algo in ("fedavg", "fedge", "fedgela"):
            pas, gas = [], []
            for seed in (0, 1, 2):
                cfg = parse_config({
                    "classes": 10, "input_dim": 12, "n_per_class": 40,
                    "class_sep": 2.5, "noise_sigma": 1.0,
                    "scheme": "pcdd", "classes_per_client": 2, "clients": 10,
                    "algo": algo, "rounds": 5, "epochs": 2, "batch_size": 10,
                    "min_size": 5, "lr": 0.05, "e_w": 25.0, "hidden": "32",
                    "seed": seed, "eval_every": 5, "finetune_epochs": 5,
                })
                final = run_federation(cfg).logs[-1].report
                pas.append(final.pa)
                gas.append(final.ga)
            assert np.mean(pas) > np.mean(gas), f"{algo}: PA {pas} GA {gas}"
