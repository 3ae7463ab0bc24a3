import math

import numpy as np
import pytest

from fedgela.diagnostics import verify_etf
from fedgela.etfgeom import (
    make_etf,
    mean_pairwise_angle,
    random_rotation,
)


class TestRandomRotation:
    def test_columns_orthonormal(self):
        u = random_rotation(3, 3, seed=7)
        assert np.max(np.abs(u.entries.T @ u.entries - np.eye(3))) < 1e-9

    def test_single_column_is_unit_vector(self):
        u = random_rotation(2, 1, seed=3)
        assert u.entries.shape == (2, 1)
        assert abs(np.linalg.norm(u.entries) - 1.0) < 1e-12

    def test_d_below_c_rejected(self):
        with pytest.raises(ValueError, match="d=2, C=3"):
            random_rotation(2, 3, seed=0)

    def test_deterministic_and_sign_fixed(self):
        a = random_rotation(8, 5, seed=11)
        b = random_rotation(8, 5, seed=11)
        np.testing.assert_array_equal(a.entries, b.entries)
        for j in range(5):
            col = a.entries[:, j]
            assert col[np.nonzero(col)[0][0]] > 0


class TestMakeEtf:
    def test_two_classes_antipodal(self):
        m = make_etf(2, 2, seed=0)
        np.testing.assert_allclose(m[:, 0], -m[:, 1], atol=1e-12)
        assert abs(m[:, 0] @ m[:, 1] + 1.0) < 1e-12

    def test_three_classes_dot_minus_half(self):
        m = make_etf(8, 3, seed=5)
        gram = m.T @ m
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(gram[i, j] + 0.5) < 1e-12

    def test_ten_classes_all_45_pairs(self):
        # independent oracle: enumerate every pair and compare to -1/(C-1)
        m = make_etf(10, 10, seed=9)
        dots = [m[:, i] @ m[:, j]
                for i in range(10) for j in range(i + 1, 10)]
        assert len(dots) == 45
        assert max(abs(d + 1.0 / 9.0) for d in dots) < 1e-9

    def test_invalid_class_count(self):
        with pytest.raises(ValueError, match="invalid class count"):
            make_etf(4, 1, seed=0)

    def test_d_below_c_propagates(self):
        with pytest.raises(ValueError, match="d=3, C=5"):
            make_etf(3, 5, seed=0)

    def test_deterministic(self):
        a = make_etf(12, 7, seed=42, e_w=3.0)
        b = make_etf(12, 7, seed=42, e_w=3.0)
        np.testing.assert_array_equal(a, b)

    def test_classifier_scaling(self):
        # sqrt(25.0) is 5.0 exactly, so the scaled frame is 5.0 * m to the bit
        scaled = make_etf(6, 4, seed=1, e_w=25.0)
        assert scaled.tobytes() == (5.0 * make_etf(6, 4, seed=1)).tobytes()

    @pytest.mark.parametrize("d,c,seed", [(4, 3, 0), (10, 10, 1), (16, 5, 2),
                                          (2, 2, 3), (7, 7, 4), (31, 6, 5)])
    def test_always_passes_verify(self, d, c, seed):
        assert verify_etf(make_etf(d, c, seed), tol=1e-9).passed


class TestVerifyEtf:
    def test_fresh_frame_passes_loose_tol(self):
        report = verify_etf(make_etf(9, 4, seed=2), tol=1e-6)
        assert report.max_norm_dev < 1e-6
        assert report.max_dot_dev < 1e-6
        assert report.col_sum_norm < 1e-6

    def test_zeroed_column_detected(self):
        broken = make_etf(9, 4, seed=2)
        broken[:, 1] = 0.0
        report = verify_etf(broken, tol=1e-6)
        assert abs(report.max_norm_dev - 1.0) < 1e-12
        assert not report.passed

    def test_permuted_columns_still_pass(self):
        permuted = make_etf(9, 4, seed=2)[:, [2, 0, 3, 1]]
        assert verify_etf(permuted, tol=1e-6).passed


class TestMeanPairwiseAngle:
    def test_orthogonal_basis_is_90(self):
        assert abs(mean_pairwise_angle(np.eye(2)) - 90.0) < 1e-12

    def test_etf_three_classes_is_120(self):
        m = make_etf(4, 3, seed=8)
        assert abs(mean_pairwise_angle(m.T) - 120.0) < 1e-9

    def test_colinear_is_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert mean_pairwise_angle([v, 2.0 * v]) == 0.0

    def test_expected_angle_formula(self):
        for c in (2, 3, 5, 10):
            m = make_etf(c + 2, c, seed=c)
            expected = math.degrees(math.acos(-1.0 / (c - 1)))
            assert abs(mean_pairwise_angle(m.T) - expected) < 1e-6

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((5, 3))
        scales = rng.uniform(0.1, 50.0, size=(5, 1))
        assert abs(mean_pairwise_angle(v) - mean_pairwise_angle(v * scales)) < 1e-9

    def test_index_subset(self):
        v = np.vstack([np.eye(2), [[1.0, 0.0]]])
        assert abs(mean_pairwise_angle(v, {0, 2})) < 1e-12

    def test_subset_too_small(self):
        with pytest.raises(ValueError, match="insufficient vectors"):
            mean_pairwise_angle(np.eye(3), {1})

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate vector"):
            mean_pairwise_angle([[1.0, 0.0], [0.0, 0.0]])
