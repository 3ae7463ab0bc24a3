#!/usr/bin/env python3
"""Check the hand-derived gradients against central finite differences.

The gradient pass of the training kernel (neuralnet.gradient_pass, the
first half of train_step) differentiates the full pipeline: linear/ReLU
layers, the projection of features onto the sqrt(e_h) sphere, the
phi-scaled bilinear logits, the class-masked softmax cross-entropy and the
fedprox proximal term. Each probe perturbs one randomly chosen scalar
parameter by +-step and compares (loss(+) - loss(-)) / (2 step) with the
analytic partial derivative.
"""
import numpy as np

from fedgela import Layout, finite_diff_check, init_backbone, make_etf
from fedgela.neuralnet import flatten, gradient_pass

rng = np.random.default_rng(0)
x = rng.standard_normal((12, 8))
frame = make_etf(6, 6, seed=1, e_w=9.0)   # the fixed d x C classifier
phi = np.array([3.0, 3.0, 0.0, 0.0, 0.0, 0.0])
mask = np.array([True, True, False, False, False, False])
labels = rng.choice([0, 1], size=12)

# a model is one float64 row, read through its layout: weights, biases, classifier
layout = Layout((8, 32, 16, 6))
row = init_backbone(layout, seed=2)
err = finite_diff_check(layout, row, x, labels, frame, phi=phi, class_mask=mask,
                        e_h=1.0, step=1e-5, n_probes=64, seed=3)
print(f"fixed frame, phi with zeros, restricted mask: worst rel err {err:.2e}")

# a learnable classifier lives in the model's row, so no frame is given
learnable = Layout(layout.layer_sizes, n_classes=6)
err = finite_diff_check(learnable, init_backbone(learnable, seed=2, classifier_seed=4), x,
                        rng.integers(0, 6, size=12), e_h=4.0, n_probes=64, seed=5,
                        lambda_prox=0.1)
print(f"learnable classifier + proximal term:         worst rel err {err:.2e}")

# the probe is sensitive: a sabotaged gradient reads as error ~ 1
small = Layout((8, 6))
small_row = init_backbone(small, seed=6)
# one model as row 0 of a (1, P) stack, which holds what it trains against
model = flatten(small, small_row, 1, frame, phi[None], mask[None])
hot = (labels[:, None] == np.arange(6))[None]
gradient_pass(model, x[None], hot, e_h=1.0)
analytic = model.grad_weights[0][0, 0, 0]
print(f"example probe: dL/dW[0,0] = {analytic:+.6e}")

# steps much below ~1e-7 lose digits to cancellation; 1e-5 is the sweet spot
for step in (1e-3, 1e-5, 1e-9):
    err = finite_diff_check(small, small_row, x, labels, frame, phi=phi, class_mask=mask,
                            step=step, n_probes=64, seed=7)
    print(f"step {step:.0e}: worst rel err {err:.2e}")
