#!/usr/bin/env python3
"""Optimize free features under a fixed simplex frame and watch them collapse.

Treating each sample's feature as a free variable on the sqrt(e_h) sphere
and minimizing cross-entropy against a fixed frame drives every feature
onto its class's frame vector, whether the label distribution is balanced
or heavily skewed. Within-class variability goes to zero alongside.
"""
import numpy as np

from fedgela import lpm_feature_fit, make_etf, nc1_variability

frame = make_etf(8, 4, seed=0)   # the unit frame (e_w = 1), a d x C matrix

for name, counts in [("balanced 10/10/10/10", [10, 10, 10, 10]),
                     ("skewed 90/10/10/10", [90, 10, 10, 10])]:
    labels = np.repeat(np.arange(4), counts)
    for iters in (0, 50, 200, 2000):
        feats = lpm_feature_fit(frame, labels, 1.0, iterations=iters, lr=0.5, seed=1)
        cos = np.sum(feats * frame.T[labels], axis=1) / np.linalg.norm(feats, axis=1)
        nc1 = nc1_variability(feats, labels)
        print(f"{name:22s} iters={iters:4d}: min cosine to own class vector "
              f"{cos.min():+.4f}, within-class variability {nc1:.2e}")
    print()
