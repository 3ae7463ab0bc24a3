#!/usr/bin/env python3
"""Build a simplex frame, check its identities, and look at its angles.

The classifier geometry used throughout this package is a set of C unit
vectors in d >= C dimensions with every pairwise inner product equal to
-1/(C-1): the most spread-out arrangement C directions can have.
"""
import math

import numpy as np

from fedgela import make_etf, mean_pairwise_angle, verify_etf

for d, c in [(2, 2), (4, 3), (16, 5), (10, 10)]:
    m = make_etf(d, c, seed=42)   # the unit frame (e_w = 1), a d x C matrix
    report = verify_etf(m, tol=1e-9)
    angle = mean_pairwise_angle(m.T)
    expected = math.degrees(math.acos(-1.0 / (c - 1)))
    print(f"d={d:2d} C={c:2d}: norm dev {report.max_norm_dev:.1e}, "
          f"dot dev {report.max_dot_dev:.1e}, column sum {report.col_sum_norm:.1e}, "
          f"mean pairwise angle {angle:.4f} deg (closed form {expected:.4f})")

# the classifier vectors are the unit columns scaled by sqrt(e_w)
classifier = make_etf(6, 4, seed=0, e_w=25.0)
print("\nclassifier column norms (e_w=25):",
      np.round(np.linalg.norm(classifier, axis=0), 6))

# angles are scale-invariant, so any positive rescaling reports the same value
scaled = make_etf(6, 4, seed=0).T * np.array([[1.0], [7.0], [0.3], [12.0]])
print("angle after positive per-vector rescaling:",
      round(mean_pairwise_angle(scaled), 6), "deg")
