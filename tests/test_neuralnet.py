import math
import tracemalloc

import numpy as np
import pytest

from fedgela.diagnostics import lpm_feature_fit, nc1_variability
from fedgela.etfgeom import make_etf
from fedgela.neuralnet import (
    Layout,
    finite_diff_check,
    flatten,
    init_backbone,
    init_classifier,
    load_checkpoint,
    logits,
    save_checkpoint,
    train_step,
)
from reference_ops import (
    Model,
    OptimizerState,
    backward,
    ce_loss,
    forward,
    init_model,
    sgd_step,
)


def identity_net(d):
    return Model(weights=[np.eye(d)], biases=[np.zeros(d)])


def tensors(layers):
    """A Layout.views' tensors in row order."""
    return layers.weights + layers.biases + [layers.classifier]


class TestLayout:
    LAYOUT = Layout((2, 3, 2), n_classes=2)

    def test_views_of_a_row_share_it_and_concatenate_back(self):
        row = np.arange(self.LAYOUT.size, dtype=np.float64)
        views = tensors(self.LAYOUT.views(row))
        assert [v.shape for v in views] == self.LAYOUT.shapes() == [
            (2, 3), (3, 2), (3,), (2,), (2, 2)]
        assert all(np.shares_memory(v, row) for v in views)
        assert np.concatenate([v.ravel() for v in views]).tobytes() == row.tobytes()
        row[0], row[-1] = 7.0, 5.0
        assert views[0][0, 0] == 7.0 and views[-1][1, 1] == 5.0

    def test_views_of_a_matrix_share_it_and_concatenate_back(self):
        matrix = np.arange(4 * self.LAYOUT.size, dtype=np.float64).reshape(4, -1)
        views = tensors(self.LAYOUT.views(matrix))
        assert [v.shape for v in views] == [(4,) + s for s in self.LAYOUT.shapes()]
        assert all(np.shares_memory(v, matrix) for v in views)
        flat = np.concatenate([v.reshape(4, -1) for v in views], axis=1)
        assert flat.tobytes() == matrix.tobytes()
        for got, want in zip([t[2] for t in tensors(self.LAYOUT.views(matrix))],
                             tensors(self.LAYOUT.views(matrix[2]))):
            assert got.shape == want.shape and np.shares_memory(got, want)

    def test_bias_shape_prefix(self):
        matrix = np.zeros((4, self.LAYOUT.size))
        biases = self.LAYOUT.views(matrix, (1,)).biases
        assert [b.shape for b in biases] == [(4, 1, 3), (4, 1, 2)]
        assert all(np.shares_memory(b, matrix) for b in biases)
        assert self.LAYOUT.shapes((1,))[2:4] == [(1, 3), (1, 2)]

    @pytest.mark.parametrize("extra", [-1, 2], ids=["short", "long"])
    def test_wrong_length_row_rejected_naming_both_sizes(self, extra, tmp_path):
        from fedgela.neuralnet import forward as shipped
        size = self.LAYOUT.size
        row = np.zeros(size + extra)
        message = rf"holds {size} entries, got {size + extra}$"
        with pytest.raises(ValueError, match=message):
            self.LAYOUT.views(row)
        with pytest.raises(ValueError, match=message):
            self.LAYOUT.views(np.zeros((4, size + extra)), (1,))
        with pytest.raises(ValueError, match=message):
            shipped(self.LAYOUT, row, np.ones((3, 2)), 1.0)
        with pytest.raises(ValueError, match=message):
            save_checkpoint(tmp_path / "ckpt.npz", self.LAYOUT, row)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("rows", [1, 2])
    def test_forward_rejects_a_matrix_naming_its_shape(self, rows):
        from fedgela.neuralnet import forward as shipped
        size = self.LAYOUT.size
        message = rf"one model row, got an array of shape \({rows}, {size}\)$"
        with pytest.raises(ValueError, match=message):
            shipped(self.LAYOUT, np.zeros((rows, size)), np.ones((3, 2)), 1.0)

    @pytest.mark.parametrize("n_classes, clf_seed, size", [(None, None, 4 * 6 + 6 * 3 + 6 + 3),
                                                           (5, 1, 4 * 6 + 6 * 3 + 6 + 3 + 15)])
    def test_size_is_the_length_of_init_backbone_row(self, n_classes, clf_seed, size):
        layout = Layout((4, 6, 3), n_classes)
        assert layout.size == init_backbone(layout, 0, clf_seed).shape[0] == size

    def test_init_backbone_draws_each_weight_in_turn_then_the_classifier(self):
        rng = np.random.default_rng(3)
        w0 = rng.uniform(-math.sqrt(6 / 10), math.sqrt(6 / 10), size=(4, 6))
        w1 = rng.uniform(-math.sqrt(6 / 9), math.sqrt(6 / 9), size=(6, 3))
        want = np.concatenate([w0.ravel(), w1.ravel(), np.zeros(9)])
        assert init_backbone(Layout((4, 6, 3)), 3).tobytes() == want.tobytes()
        with_clf = np.concatenate([want, init_classifier(3, 5, (3, 1)).ravel()])
        assert init_backbone(Layout((4, 6, 3), 5), 3, (3, 1)).tobytes() == with_clf.tobytes()

    def test_classifier_seed_exactly_with_a_classifier(self):
        for layout, clf_seed in ((Layout((4, 3)), 1), (Layout((4, 3), 5), None)):
            with pytest.raises(ValueError, match="classifier_seed exactly when"):
                init_backbone(layout, 0, clf_seed)

    def test_needs_an_input_and_an_output_size(self):
        with pytest.raises(ValueError, match="input and an output size"):
            Layout((4,))


class TestForward:
    def test_identity_net_normalizes(self):
        params = identity_net(3)
        x = np.array([[3.0, 4.0, 0.0]])  # norm 5
        fb, _ = forward(params, x, e_h=1.0)
        assert abs(np.linalg.norm(fb.h[0]) - 1.0) < 1e-12
        np.testing.assert_allclose(fb.h[0], [0.6, 0.8, 0.0])

    def test_rows_on_sqrt_eh_sphere(self):
        params = init_model((5, 16, 4), seed=0)
        x = np.random.default_rng(1).standard_normal((12, 5))
        for e_h in (1.0, 4.0, 0.25):
            fb, _ = forward(params, x, e_h)
            norms = np.linalg.norm(fb.h, axis=1)
            assert np.max(np.abs(norms - math.sqrt(e_h))) < 1e-9

    def test_zero_input_degenerate(self):
        params = identity_net(3)
        with pytest.raises(FloatingPointError, match="degenerate feature"):
            forward(params, np.zeros((1, 3)), 1.0)

    def test_duplicate_rows_identical_features(self):
        params = init_model((4, 8, 3), seed=2)
        x = np.random.default_rng(3).standard_normal((1, 4))
        fb, _ = forward(params, np.vstack([x, x]), 1.0)
        np.testing.assert_array_equal(fb.h[0], fb.h[1])

    def test_width_mismatch(self):
        params = identity_net(3)
        with pytest.raises(ValueError, match="does not match"):
            forward(params, np.ones((2, 4)), 1.0)


class TestLogits:
    def test_feature_at_frame_vertex(self):
        frame = make_etf(5, 4, seed=0, e_w=1.0)
        h = frame[:, 0][None, :]  # e_h = 1
        z = logits(h, frame)
        assert abs(z[0, 0] - 1.0) < 1e-12
        for j in range(1, 4):
            assert abs(z[0, j] + 1.0 / 3.0) < 1e-12

    def test_phi_scales_linearly(self):
        frame = make_etf(5, 4, seed=0)
        h = frame[:, 0][None, :]
        z1 = logits(h, frame)
        z2 = logits(h, frame, np.full(4, 2.0))
        np.testing.assert_allclose(z2, 2.0 * z1)

    def test_zero_phi_zeroes_logit(self):
        frame = make_etf(5, 4, seed=0)
        rng = np.random.default_rng(0)
        h = rng.standard_normal((6, 5))
        phi = np.array([1.0, 0.0, 2.0, 1.0])
        z = logits(h, frame, phi)
        np.testing.assert_array_equal(z[:, 1], np.zeros(6))

    def test_dimension_mismatch(self):
        frame = make_etf(5, 4, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            logits(np.ones((2, 3)), frame)

    def test_negative_phi_rejected(self):
        frame = make_etf(2, 2, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            logits(np.ones((1, 2)), frame, np.array([1.0, -0.5]))


class TestCeLoss:
    def test_binary_closed_form(self):
        for t in (0.0, 0.5, 2.0, -1.5):
            z = np.array([[t, -t]])
            expected = math.log(1.0 + math.exp(-2.0 * t))
            assert abs(ce_loss(z, [0]) - expected) < 1e-12

    def test_uniform_logits_log_mask_size(self):
        z = np.zeros((3, 6))
        mask = np.array([True, False, True, True, False, True])
        assert abs(ce_loss(z, [0, 2, 5], mask) - math.log(4.0)) < 1e-12

    def test_singleton_mask_zero_loss(self):
        z = np.random.default_rng(0).standard_normal((4, 5))
        assert ce_loss(z, [2, 2, 2, 2], np.arange(5) == 2) == 0.0

    def test_label_outside_mask(self):
        z = np.zeros((1, 4))
        with pytest.raises(ValueError, match="invalid label"):
            ce_loss(z, [3], np.array([True, True, False, False]))

    def test_masked_equals_minus_inf_logits(self):
        # excluding a class from the mask == sending its logit to -inf:
        # this is why the mask, not phi alone, removes absent classes
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 6))
        mask = np.array([True, False, True, True, False, True])
        labels = rng.choice(np.nonzero(mask)[0], size=8)
        z_inf = z.copy()
        z_inf[:, ~mask] = -np.inf
        assert abs(ce_loss(z, labels, mask) - ce_loss(z_inf, labels, None)) < 1e-12

    def test_zero_phi_is_not_exclusion(self):
        # zero phi gives logit 0, which still contributes exp(0)=1 under a
        # full mask; only the restricted mask drops the class
        frame = make_etf(4, 4, seed=1)
        h = np.random.default_rng(2).standard_normal((5, 4))
        phi = np.array([1.0, 1.0, 0.0, 1.0])
        z = logits(h, frame, phi)
        full = ce_loss(z, [0] * 5, None)
        restricted = ce_loss(z, [0] * 5, np.array([True, True, False, True]))
        assert full > restricted


class TestBackward:
    def test_gradient_shapes(self):
        params = init_model((4, 8, 3), seed=0)
        frame = make_etf(3, 3, seed=0)
        x = np.random.default_rng(1).standard_normal((5, 4))
        _, cache = forward(params, x, 1.0)
        grads = backward(cache, [0, 1, 2, 0, 1], frame=frame)
        for g, w in zip(grads.weights, params.weights):
            assert g.shape == w.shape
        for g, b in zip(grads.biases, params.biases):
            assert g.shape == b.shape
        assert grads.classifier is None

    def test_learnable_classifier_gets_gradient(self):
        clf = init_classifier(3, 5, seed=1)
        params = init_model((4, 3), seed=0, classifier=clf)
        x = np.random.default_rng(1).standard_normal((5, 4))
        _, cache = forward(params, x, 1.0)
        grads = backward(cache, [0, 1, 2, 3, 4])
        assert grads.classifier.shape == clf.shape
        assert np.any(grads.classifier != 0)

    def test_duplicated_batch_same_gradient(self):
        params = init_model((4, 8, 3), seed=3)
        frame = make_etf(3, 3, seed=0)
        x = np.random.default_rng(4).standard_normal((6, 4))
        y = np.array([0, 1, 2, 1, 0, 2])
        _, cache1 = forward(params, x, 1.0)
        g1 = backward(cache1, y, frame=frame)
        _, cache2 = forward(params, np.vstack([x, x]), 1.0)
        g2 = backward(cache2, np.concatenate([y, y]), frame=frame)
        for a, b in zip(g1.tensors(), g2.tensors()):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_stale_cache_rejected(self):
        params = init_model((4, 3), seed=0)
        frame = make_etf(3, 3, seed=0)
        x = np.random.default_rng(1).standard_normal((4, 4))
        _, cache = forward(params, x, 1.0)
        grads = backward(cache, [0, 1, 2, 0], frame=frame)
        state = OptimizerState.for_params(params, 0.1, 0.9, 0.0)
        sgd_step(params, grads, state)
        with pytest.raises(RuntimeError, match="cache mismatch"):
            backward(cache, [0, 1, 2, 0], frame=frame)

    @pytest.mark.parametrize("layers", [(4, 5), (4, 8, 5), (4, 10, 8, 5)])
    def test_finite_difference_oracle(self, layers):
        # central differences at step 1e-5 as the independent gradient route
        layout = Layout(layers)
        frame = make_etf(5, 5, seed=0, e_w=4.0)
        x = np.random.default_rng(11).standard_normal((7, 4))
        y = np.array([0, 1, 2, 3, 4, 0, 1])
        err = finite_diff_check(layout, init_backbone(layout, 10), x, y, frame,
                                e_h=1.0, step=1e-5,
                                n_probes=40, seed=12)
        assert err < 1e-4

    def test_finite_difference_with_phi_mask_prox(self):
        layout = Layout((6, 12, 5), n_classes=5)
        x = np.random.default_rng(22).standard_normal((9, 6))
        phi = np.array([2.0, 0.0, 1.0, 1.5, 0.5])
        mask = np.array([True, False, True, True, True])
        y = np.array([0, 2, 3, 4, 0, 2, 3, 4, 0])
        err = finite_diff_check(layout, init_backbone(layout, 20, 21), x, y, phi=phi,
                                class_mask=mask, e_h=2.0, n_probes=48, seed=23, lambda_prox=0.05)
        assert err < 1e-4

    def test_broken_gradient_detected(self, monkeypatch):
        import fedgela.neuralnet as nn
        real = nn.gradient_pass

        def zeroed(model, *args, **kwargs):
            loss = real(model, *args, **kwargs)
            model.grad[...] = 0.0
            return loss

        monkeypatch.setattr(nn, "gradient_pass", zeroed)
        layout = Layout((4, 8, 3))
        frame = make_etf(3, 3, seed=0)
        x = np.random.default_rng(2).standard_normal((6, 4))
        err = nn.finite_diff_check(layout, init_backbone(layout, 1), x, [0, 1, 2, 0, 1, 2],
                                   frame, n_probes=32, seed=3)
        assert err > 0.5


class TestGradientOracle:
    """finite_diff_check checks gradient_pass, the gradient train_step steps on."""

    def test_wrong_sign_prox_gradient_detected(self, monkeypatch, capsys):
        import fedgela.neuralnet as nn
        from fedgela.cli import main
        real = nn.gradient_pass

        def flipped(model, *args, **kwargs):
            loss = real(model, *args, **kwargs)
            if model.prox is not None:
                model.grad -= 2.0 * model.lambda_prox * (model.theta - model.prox_ref)
            return loss

        monkeypatch.setattr(nn, "gradient_pass", flipped)
        layout = Layout((6, 12, 5), n_classes=5)
        x = np.random.default_rng(22).standard_normal((9, 6))
        y = np.array([0, 2, 3, 4, 0, 2, 3, 4, 0])
        err = nn.finite_diff_check(layout, init_backbone(layout, 20, 21), x, y, n_probes=48,
                                   seed=23, lambda_prox=0.05)
        assert err > 0.5
        assert main(["gradcheck"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert len(failed) == 4 and all(" fedprox/" in line for line in failed)


class TestMaskAndPhiChecks:
    """A class mask is a boolean vector with one entry per class, selecting
    at least one; phi has one entry per class. predict (through logits and
    the mask check) and finite_diff_check reject anything else, naming the
    class count."""

    @pytest.mark.parametrize("mask, phi, pattern", [
        (np.ones(3, bool), None, r"boolean vector with one entry per class of C=4"),
        (np.ones(5, bool), None, r"boolean vector with one entry per class of C=4"),
        (np.array([0, 3]), None, r"boolean vector with one entry per class of C=4"),
        (np.zeros(4, bool), None, r"selects none of the C=4 classes"),
        (None, np.ones(3), r"phi has shape \(3,\), not one entry per class of C=4"),
    ], ids=["short-mask", "long-mask", "class-ids", "all-false-mask", "short-phi"])
    def test_rejected_naming_the_class_count(self, mask, phi, pattern):
        from fedgela.metrics import predict
        layout = Layout((4, 4))
        row = init_backbone(layout, 0)
        frame = make_etf(4, 4, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 4))
        with pytest.raises(ValueError, match=pattern):
            predict(forward(Model.of(layout, row), x, 1.0)[0].h, frame, class_mask=mask, phi=phi)
        with pytest.raises(ValueError, match=pattern):
            finite_diff_check(layout, row, x, [0, 0, 0], frame, phi=phi, class_mask=mask)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_out_of_range_label_rejected(self, label):
        layout = Layout((4, 4))
        frame = make_etf(4, 4, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 4))
        with pytest.raises(ValueError, match=rf"invalid label: class {label}\b"):
            finite_diff_check(layout, init_backbone(layout, 0), x, [0, 1, label], frame)

    def test_frame_exactly_when_the_classifier_is_fixed(self):
        frame = make_etf(4, 4, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 4))
        for layout, given in ((Layout((4, 4)), None), (Layout((4, 4), n_classes=4), frame)):
            with pytest.raises(ValueError, match="fixed frame exactly when"):
                finite_diff_check(layout, np.zeros(layout.size), x, [0, 1, 2], given)


class TestShippedForward:
    def test_matches_reference_forward_bitwise(self):
        from fedgela.neuralnet import forward as shipped
        layout = Layout((5, 16, 8, 4))
        row = init_backbone(layout, 3)
        rng = np.random.default_rng(4)
        for b in layout.views(row).biases:   # init_backbone's biases are all zero
            b[:] = rng.standard_normal(b.shape)
        x = rng.standard_normal((9, 5))
        h = shipped(layout, row, x, 2.0)
        ref, _ = forward(Model.of(layout, row), x, 2.0)
        assert h.tobytes() == ref.h.tobytes()

    def test_rejects_bad_inputs(self):
        from fedgela.neuralnet import forward as shipped
        layout = Layout((3, 3))
        row = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
        with pytest.raises(FloatingPointError, match="degenerate feature"):
            shipped(layout, row, np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError, match="does not match"):
            shipped(layout, row, np.ones((2, 4)), 1.0)


class TestSgdStep:
    def test_plain_sgd(self):
        params = identity_net(2)
        grads_w = [np.full((2, 2), 0.5)]
        grads_b = [np.full(2, 0.25)]
        state = OptimizerState.for_params(params, lr=0.1, momentum=0.0, weight_decay=0.0)
        from reference_ops import Grads
        sgd_step(params, Grads(grads_w, grads_b), state)
        np.testing.assert_allclose(params.weights[0], np.eye(2) - 0.05)
        np.testing.assert_allclose(params.biases[0], -0.025 * np.ones(2))

    def test_zero_grad_fixed_point(self):
        params = identity_net(2)
        before = [t.copy() for t in params.tensors()]
        from reference_ops import Grads
        state = OptimizerState.for_params(params, lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(params, Grads([np.zeros((2, 2))], [np.zeros(2)]), state)
        for t, b in zip(params.tensors(), before):
            np.testing.assert_array_equal(t, b)

    def test_two_step_momentum_unroll(self):
        # buf1 = g, buf2 = 0.9 g + g -> total displacement lr * g * (1 + 1.9)
        from reference_ops import Grads
        params = identity_net(2)
        start = params.weights[0].copy()
        g = np.full((2, 2), 0.3)
        state = OptimizerState.for_params(params, lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            sgd_step(params, Grads([g.copy()], [np.zeros(2)]), state)
        np.testing.assert_allclose(start - params.weights[0], 0.1 * g * 2.9,
                                   atol=1e-15)

    def test_weight_decay_enters_buffer(self):
        from reference_ops import Grads
        params = identity_net(2)
        start = params.weights[0].copy()
        state = OptimizerState.for_params(params, lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(params, Grads([np.zeros((2, 2))], [np.zeros(2)]), state)
        np.testing.assert_allclose(params.weights[0], start - 0.1 * 0.5 * start)

    def test_shape_mismatch(self):
        from reference_ops import Grads
        params = identity_net(2)
        state = OptimizerState.for_params(params, lr=0.1, momentum=0.0, weight_decay=0.0)
        with pytest.raises(ValueError, match="shape"):
            sgd_step(params, Grads([np.zeros((3, 3))], [np.zeros(2)]), state)


class TestTrainingBehaviour:
    def test_loss_decreases_on_separable_toy(self):
        from fedgela.datagen import synth_gaussian_mixture
        from reference_ops import Grads  # noqa: F401

        ds = synth_gaussian_mixture(3, 4, 30, class_sep=6.0, noise_sigma=0.3, seed=0)
        params = init_model((4, 16, 3), seed=1)
        frame = make_etf(3, 3, seed=2, e_w=9.0)
        state = OptimizerState.for_params(params, lr=0.02, momentum=0.9,
                                          weight_decay=1e-4)
        losses = []
        for _ in range(100):
            fb, cache = forward(params, ds.features, 1.0)
            z = logits(fb, frame)
            losses.append(ce_loss(z, ds.labels))
            grads = backward(cache, ds.labels, frame=frame)
            sgd_step(params, grads, state)
        tail = losses[5:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert losses[-1] < losses[0]

    def test_classifier_bits_never_change(self):
        frame = make_etf(4, 4, seed=0, e_w=2.0)
        frozen = frame.tobytes()
        params = init_model((5, 8, 4), seed=1)
        x = np.random.default_rng(2).standard_normal((10, 5))
        y = np.array([0, 1, 2, 3] * 2 + [0, 1])
        state = OptimizerState.for_params(params, 0.1, 0.9, 1e-4)
        for _ in range(25):
            fb, cache = forward(params, x, 1.0)
            grads = backward(cache, y, frame=frame)
            sgd_step(params, grads, state)
        assert frame.tobytes() == frozen


class TestStepAllocations:
    """A train_step allocates no parameter-sized array, proximal term included:
    (theta - prox_ref) is computed in the stack's own `prox` matrix, which a
    stack has exactly when it is built with lambda_prox > 0."""

    K, BATCH = 10, 20

    def _stack(self, lambda_prox):
        layout = Layout((20, 64, 32), n_classes=10)
        return flatten(layout, init_backbone(layout, 0, 1), self.K, lambda_prox=lambda_prox)

    def _peak(self, model):
        m = len(model.theta)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((m, self.BATCH, 20))
        hot = rng.integers(10, size=(m, self.BATCH))[..., None] == np.arange(10)
        kwargs = dict(e_h=400.0, lr=0.02, momentum=0.9, weight_decay=1e-4)
        train_step(model, x, hot, **kwargs)              # warm-up
        tracemalloc.start()
        try:
            train_step(model, x, hot, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_only_a_proximal_stack_owns_prox(self):
        plain = self._stack(0.0)
        assert plain.prox is None and plain.prox_ref is None
        assert plain.rows(0, 6).prox is None
        stack = self._stack(0.01)
        assert stack.prox.shape == stack.theta.shape
        assert stack.lambda_prox == 0.01
        with pytest.raises(ValueError, match="lambda_prox must be >= 0"):
            self._stack(-0.01)

    def test_prox_step_peak_within_plain_step_peak(self):
        plain = self._peak(self._stack(0.0))
        assert self._peak(self._stack(0.01)) <= plain

    def test_prefix_view_slices_the_stack_buffer(self):
        stack = self._stack(0.01)
        view = stack.rows(0, 6)
        assert view.prox.shape == (6, stack.theta.shape[1])
        assert np.shares_memory(view.prox, stack.prox[:6])
        assert not np.shares_memory(view.prox, stack.prox[6:])
        assert view.prox_ref is stack.prox_ref and view.lambda_prox == stack.lambda_prox

    def test_prefix_view_steps_without_a_parameter_sized_allocation(self):
        view = self._stack(0.01).rows(0, 6)
        assert self._peak(view) <= self._peak(self._stack(0.0).rows(0, 6))


class TestFlatModelRows:
    """A sub-stack of rows a..b holds views of the parent's rows a..b of
    every per-row array, and shares its frame."""

    def test_phi_and_mask_are_views_of_the_parent_rows(self):
        layout = Layout((4, 6, 5))
        frame = make_etf(5, 5, seed=1)
        rng = np.random.default_rng(2)
        phi = rng.uniform(0.5, 2.0, size=(7, 5))
        mask = rng.uniform(size=(7, 5)) < 0.7
        mask[:, 0] = False
        stack = flatten(layout, init_backbone(layout, 0), 7, frame, phi, mask)
        assert stack.phi.shape == stack.mask.shape == (7, 1, 5)
        view = stack.rows(2, 5)
        for name in ("theta", "grad", "vel", "phi", "mask"):
            whole, part = getattr(stack, name), getattr(view, name)
            assert np.shares_memory(part, whole[2:5]), name
            assert not np.shares_memory(part, whole[:2]), name
            assert not np.shares_memory(part, whole[5:]), name
            np.testing.assert_array_equal(part, whole[2:5])
        assert view.frame is stack.frame and view.w_eff is stack.w_eff

    def test_an_all_classes_mask_is_no_mask(self):
        layout = Layout((4, 5))
        frame = make_etf(5, 5, seed=1)
        assert flatten(layout, init_backbone(layout, 0), 3, frame,
                       mask=np.ones((3, 5), bool)).mask is None

    def test_a_learnable_classifier_is_the_rows_own(self):
        layout = Layout((4, 5), n_classes=3)
        stack = flatten(layout, init_backbone(layout, 0, 1), 4)
        assert stack.frame is None and stack.w_eff is stack.classifier
        assert np.shares_memory(stack.rows(1, 3).w_eff, stack.theta[1:3])


class TestLpmFeatureFit:
    def test_balanced_converges_to_frame(self):
        frame = make_etf(8, 4, seed=0, e_w=1.0)
        labels = np.repeat(np.arange(4), 10)
        feats = lpm_feature_fit(frame, labels, 1.0, iterations=2000,
                                lr=0.5, seed=1)
        cos = np.sum(feats * frame.T[labels], axis=1) / np.linalg.norm(feats, axis=1)
        assert cos.min() > 0.99
        assert nc1_variability(feats, labels) < 1e-3

    def test_single_sample_two_classes(self):
        frame = make_etf(2, 2, seed=3)
        feats = lpm_feature_fit(frame, [1], 1.0, iterations=1500, lr=0.5, seed=4)
        cos = feats[0] @ frame[:, 1] / np.linalg.norm(feats[0])
        assert cos > 0.99

    def test_imbalanced_converges_too(self):
        frame = make_etf(6, 2, seed=5)
        labels = np.array([0] * 90 + [1] * 10)
        feats = lpm_feature_fit(frame, labels, 1.0, iterations=2000,
                                lr=0.5, seed=6)
        cos = np.sum(feats * frame.T[labels], axis=1) / np.linalg.norm(feats, axis=1)
        assert cos.min() > 0.99


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        layout = Layout((6, 12, 4), n_classes=7)
        row = init_backbone(layout, 0, 1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, layout, row)
        loaded_layout, loaded_row = load_checkpoint(path)
        assert loaded_layout == layout
        assert loaded_row.tobytes() == row.tobytes()

    def test_without_classifier(self, tmp_path):
        layout = Layout((3, 5))
        path = tmp_path / "ckpt.npz"
        row = init_backbone(layout, 0)
        save_checkpoint(path, layout, row)
        loaded_layout, loaded_row = load_checkpoint(path)
        assert loaded_layout.n_classes is None
        assert loaded_layout.layer_sizes == (3, 5)
        assert loaded_row.tobytes() == row.tobytes()

    @pytest.mark.parametrize("name, bad, message", [
        ("w0", lambda t: t.T, r"tensor w0 has shape \(12, 6\), expected \(6, 12\)"),
        ("classifier", lambda t: np.zeros((5, 7)),
         r"tensor classifier has shape \(5, 7\), expected \(4, 7\)"),
        ("b1", None, r"has no tensor b1"),
        ("format_version", None, r"has no tensor format_version"),
        ("layer_sizes", None, r"has no tensor layer_sizes"),
    ], ids=["transposed-w0", "classifier-off-the-features", "missing-b1",
            "missing-format_version", "missing-layer_sizes"])
    def test_malformed_tensor_named(self, tmp_path, name, bad, message):
        layout = Layout((6, 12, 4), n_classes=7)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, layout, init_backbone(layout, 0, 1))
        with np.load(path) as data:
            payload = dict(data)
        if bad is None:
            del payload[name]
        else:
            payload[name] = bad(payload[name])
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)
