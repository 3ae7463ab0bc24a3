import re

import numpy as np
import pytest

from fedgela.datagen import (
    Dataset,
    _largest_remainder_alloc,
    PartitionInfeasibleError,
    dirichlet_partition,
    load_csv,
    make_client_shard,
    pcdd_partition,
    synth_gaussian_mixture,
)
from fedgela.diagnostics import partition_table, save_csv


def balanced_ds(n_classes=4, n_per_class=25, seed=0, input_dim=6):
    return synth_gaussian_mixture(n_classes, input_dim, n_per_class,
                                  class_sep=5.0, noise_sigma=0.5, seed=seed)


class TestSynthGaussianMixture:
    def test_separable_when_sep_dominates(self):
        ds = synth_gaussian_mixture(2, 2, 5, class_sep=10.0, noise_sigma=0.01, seed=0)
        assert ds.n == 10
        # nearest class mean classifies perfectly at this separation
        means = np.vstack([ds.features[ds.labels == c].mean(axis=0) for c in (0, 1)])
        dists = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2)
        assert np.array_equal(np.argmin(dists, axis=1), ds.labels)

    def test_balanced_histogram(self):
        ds = synth_gaussian_mixture(3, 4, 100, 2.0, 1.0, seed=1)
        np.testing.assert_array_equal(ds.class_counts(), [100, 100, 100])

    def test_deterministic(self):
        a = synth_gaussian_mixture(3, 5, 10, 2.0, 1.0, seed=7)
        b = synth_gaussian_mixture(3, 5, 10, 2.0, 1.0, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="invalid sizes"):
            synth_gaussian_mixture(1, 4, 10, 2.0, 1.0, seed=0)
        with pytest.raises(ValueError, match="positive"):
            synth_gaussian_mixture(3, 4, 10, -2.0, 1.0, seed=0)

    def test_means_have_requested_norm(self):
        ds = synth_gaussian_mixture(3, 8, 2000, class_sep=4.0, noise_sigma=0.05, seed=3)
        for c in range(3):
            emp = ds.features[ds.labels == c].mean(axis=0)
            assert abs(np.linalg.norm(emp) - 4.0) < 0.05


class TestDirichletPartition:
    def test_huge_beta_near_uniform_proportions(self):
        # Dir with beta >> 1 concentrates at the uniform allocation
        ds = balanced_ds(n_classes=5, n_per_class=200)
        global_props = ds.class_counts() / ds.n
        for seed in (0, 1, 2):
            shards = dirichlet_partition(ds, n_clients=10, beta=10000.0, seed=seed,
                                         min_size=1)
            for shard in shards:
                props = shard.counts / shard.n_k
                assert np.max(np.abs(props - global_props)) < 0.05

    def test_small_beta_produces_missing_classes(self):
        ds = balanced_ds(n_classes=5, n_per_class=40)
        saw_empty = False
        for seed in (0, 1, 2):
            shards = dirichlet_partition(ds, n_clients=10, beta=0.1, seed=seed, min_size=1)
            saw_empty = saw_empty or any(
                len(s.existing_classes) < ds.n_classes for s in shards)
        assert saw_empty

    def test_single_client_takes_everything(self):
        ds = balanced_ds(n_classes=4, n_per_class=25)
        (shard,) = dirichlet_partition(ds, n_clients=1, beta=0.3, seed=0, min_size=1)
        np.testing.assert_array_equal(shard.indices, np.arange(ds.n))

    def test_disjoint_cover_and_count_conservation(self):
        ds = balanced_ds(n_classes=4, n_per_class=25)
        shards = dirichlet_partition(ds, n_clients=6, beta=0.5, seed=3, min_size=1)
        all_idx = np.concatenate([s.indices for s in shards])
        assert len(all_idx) == len(set(all_idx.tolist())) == ds.n
        totals = partition_table(shards, ds.n_classes).sum(axis=0)
        np.testing.assert_array_equal(totals, ds.class_counts())

    def test_deterministic_per_seed(self):
        ds = balanced_ds()
        a = dirichlet_partition(ds, n_clients=5, beta=0.5, seed=9, min_size=1)
        b = dirichlet_partition(ds, n_clients=5, beta=0.5, seed=9, min_size=1)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.indices, sb.indices)
            np.testing.assert_array_equal(sa.test_indices, sb.test_indices)

    def test_infeasible_min_size_reports_best(self):
        ds = balanced_ds(n_classes=2, n_per_class=5)  # 10 samples, 8 clients
        with pytest.raises(PartitionInfeasibleError, match="best minimum achieved"):
            dirichlet_partition(ds, n_clients=8, beta=1.0, seed=0, min_size=5)

    def test_min_size_respected(self):
        ds = balanced_ds(n_classes=4, n_per_class=50)
        shards = dirichlet_partition(ds, n_clients=5, beta=0.2, seed=1, min_size=10)
        assert min(s.n_k for s in shards) >= 10


class TestPcddPartition:
    def test_two_classes_per_client(self):
        ds = balanced_ds(n_classes=10, n_per_class=20, input_dim=12)
        shards = pcdd_partition(ds, n_clients=10, classes_per_client=2, seed=0)
        table = partition_table(shards, 10)
        assert all(np.count_nonzero(row) == 2 for row in table)
        # each class appears in exactly N * cpc / C = 2 shards
        assert all(np.count_nonzero(table[:, c]) == 2 for c in range(10))

    def test_coverage_infeasible(self):
        ds = balanced_ds(n_classes=10, n_per_class=5, input_dim=12)
        with pytest.raises(ValueError, match="coverage infeasible"):
            pcdd_partition(ds, n_clients=4, classes_per_client=1, seed=0)

    def test_single_client_full_classes(self):
        ds = balanced_ds(n_classes=2, n_per_class=10, input_dim=4)
        (shard,) = pcdd_partition(ds, n_clients=1, classes_per_client=2, seed=0)
        assert shard.existing_classes == (0, 1)
        assert shard.n_k == ds.n

    def test_existing_classes_exactly_cpc(self):
        ds = balanced_ds(n_classes=6, n_per_class=30, input_dim=8)
        for cpc in (1, 2, 3):
            shards = pcdd_partition(ds, n_clients=6, classes_per_client=cpc, seed=4)
            assert all(len(s.existing_classes) == cpc for s in shards)

    def test_disjoint_cover_and_determinism(self):
        ds = balanced_ds(n_classes=5, n_per_class=21, input_dim=8)
        a = pcdd_partition(ds, n_clients=5, classes_per_client=3, seed=2)
        b = pcdd_partition(ds, n_clients=5, classes_per_client=3, seed=2)
        all_idx = np.concatenate([s.indices for s in a])
        assert len(all_idx) == len(set(all_idx.tolist())) == ds.n
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.indices, sb.indices)


@pytest.mark.parametrize("partition, kwargs, message", [
    (dirichlet_partition, {"n_clients": 0, "beta": 0.5}, "n_clients must be >= 1"),
    (dirichlet_partition, {"n_clients": 4, "beta": 0.0},
     "dirichlet scheme needs beta > 0, got 0.0"),
    (dirichlet_partition, {"n_clients": 4, "beta": -1.0},
     "dirichlet scheme needs beta > 0, got -1.0"),
    (dirichlet_partition, {"n_clients": 4, "beta": None},
     "dirichlet scheme needs beta > 0, got None"),
    (dirichlet_partition, {"n_clients": 4, "beta": 0.5, "min_size": 0},
     "min_size must be >= 1"),
    (pcdd_partition, {"n_clients": 0, "classes_per_client": 2}, "n_clients must be >= 1"),
    (pcdd_partition, {"n_clients": 4, "classes_per_client": 0},
     "pcdd scheme needs classes_per_client >= 1, got 0"),
], ids=["dirichlet-no-clients", "beta-zero", "beta-negative", "beta-none", "min-size-zero",
        "pcdd-no-clients", "pcdd-no-classes"])
def test_partition_parameters_checked(partition, kwargs, message):
    # each message comes from the partitioner's own check, before any draw;
    # without it the call fails elsewhere, with another message, or not at all
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        partition(balanced_ds(), seed=0, **kwargs)


class TestLargestRemainderAlloc:
    @pytest.mark.parametrize("proportions, total, want", [
        # 3.15, 2.45, 1.4: floors 3, 2, 1 and one unit left for the largest
        # fraction, 0.45
        ([0.45, 0.35, 0.2], 7, [3, 3, 1]),
        # 0.5, 1.5, 1.3, 1.7: floors 0, 1, 1, 1 and two units left, for 0.7
        # and then the lower index of the tied 0.5s
        ([0.1, 0.3, 0.26, 0.34], 5, [1, 1, 1, 2]),
    ])
    def test_hand_worked_cases(self, proportions, total, want):
        got = _largest_remainder_alloc(np.array(proportions), total)
        assert got.tolist() == want and got.sum() == total


class TestClientShard:
    def test_stratified_test_split(self):
        ds = balanced_ds(n_classes=4, n_per_class=25)
        rng = np.random.default_rng(0)
        shard = make_client_shard(ds, 0, np.arange(ds.n), test_frac=0.2, rng=rng)
        assert shard.test_indices.size == 20  # 5 per class
        test_counts = np.bincount(ds.labels[shard.test_indices], minlength=4)
        np.testing.assert_array_equal(test_counts, [5, 5, 5, 5])
        overlap = set(shard.train_indices.tolist()) & set(shard.test_indices.tolist())
        assert not overlap
        assert shard.train_indices.size + shard.test_indices.size == shard.n_k

    def test_empty_shard_rejected(self):
        ds = balanced_ds()
        with pytest.raises(ValueError, match="empty client shard"):
            make_client_shard(ds, 0, [], test_frac=0.2, rng=np.random.default_rng(0))

    def test_tiny_shard_keeps_nonempty_test(self):
        ds = balanced_ds(n_classes=4, n_per_class=25)
        idx = np.concatenate([np.nonzero(ds.labels == 0)[0][:2],
                              np.nonzero(ds.labels == 1)[0][:2]])
        shard = make_client_shard(ds, 0, idx, test_frac=0.2, rng=np.random.default_rng(1))
        assert shard.test_indices.size == 1
        assert shard.train_indices.size == 3


class TestCsv:
    def test_two_row_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv(p)
        assert ds.n == 2 and ds.n_classes == 2
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_negative_label_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,2.0,-1\n")
        with pytest.raises(ValueError, match=":2"):
            load_csv(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match=":3"):
            load_csv(p)

    @pytest.mark.parametrize("rows,match", [
        ("1.0,nan,1\ninf,2.0,0\n", "f1 = nan"),
        ("inf,2.0,0\n1.0,nan,1\n", "f0 = inf"),
    ])
    def test_non_finite_feature_names_line(self, tmp_path, rows, match):
        p = tmp_path / "bad.csv"
        p.write_text("f0,f1,label\n1.0,2.0,0\n" + rows)
        with pytest.raises(ValueError, match=rf":3: non-finite feature {match}$"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "header.csv"
        p.write_text("f0,f1,label\n")
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(p)

    def test_round_trip_exact(self, tmp_path):
        ds = balanced_ds(n_classes=3, n_per_class=7, input_dim=5)
        p = tmp_path / "ds.csv"
        save_csv(ds, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.n_classes == ds.n_classes
