"""Evaluation: generic/personal accuracy and angle diagnostics.

Generic accuracy (GA) scores the global model with the standard classifier
on the union of client test splits. Personal accuracy (PA) averages each
client's on-shard test accuracy under its own personal model. Angle reports
track the mean pairwise angle between class means (globally over all
classes, locally over each client's existing classes) and, for learnable
classifiers, between classifier columns split by existing/missing classes.

The scores are functions of features: the B x d projected features that
neuralnet.forward returns. `evaluate` is the one place that forwards
models, each (model, split) pair once; a model there is a row of a
neuralnet.Layout. A classifier is a d x C
matrix, phi a (C,) vector of class scales and a class mask a boolean (C,)
vector.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .etfgeom import mean_pairwise_angle
from .neuralnet import Layout, _as_mask, forward, logits

__all__ = ["EvalReport", "AngleReport", "predict", "generic_accuracy",
           "personal_accuracy", "angle_report", "evaluate"]


class AngleReport(NamedTuple):
    """The angle diagnostics in degrees, named as their rounds.csv columns."""

    global_mean_angle: float | None
    local_exist_angle: float | None
    clf_exist_angle: float | None
    clf_miss_angle: float | None
    skipped_clients: int = 0   # clients with < 2 usable classes


class EvalReport(NamedTuple):
    """One evaluation point: GA, PA, each client's personal accuracy in
    shard order and the angle diagnostics."""

    ga: float
    pa: float
    per_client_acc: tuple
    angles: AngleReport


def predict(features, classifier, class_mask=None, phi=None) -> np.ndarray:
    """Argmax over (masked, optionally phi-scaled) logits of the features
    against the d x C `classifier` matrix.

    Ties break toward the lowest class index. Global evaluation passes no
    phi and no mask (every class); personal evaluation passes the client's
    (C,) phi and boolean existing-class mask.
    """
    z = logits(features, classifier, phi)
    mask = _as_mask(class_mask, z.shape[1])
    z = np.where(mask[None, :], z, -np.inf)
    return np.argmax(z, axis=1)


def _rows(features, labels) -> np.ndarray:
    """The feature matrix, checked to hold one row per label."""
    h = np.asarray(features, dtype=np.float64)
    if len(h) != len(labels):
        raise ValueError(f"{len(h)} feature rows for {len(labels)} labels")
    return h


def generic_accuracy(features, classifier, labels) -> float:
    """Accuracy of the global model's features over a (nonempty) global test set."""
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("empty test set")
    return float(np.mean(predict(_rows(features, y), classifier) == y))


def personal_accuracy(personal_models, shards, ds):
    """Mean over clients of on-shard test accuracy.

    `personal_models` is one (features, classifier, phi, mask) tuple per
    shard, the features those of the client's personal model on its test
    split: phi/mask are None for fine-tuned global baselines and the
    client's own adaptation for distribution-adapted arms.
    """
    if len(personal_models) != len(shards):
        raise ValueError(
            f"need one model per client: {len(personal_models)} models for {len(shards)} shards"
        )
    per_client = []
    for (features, classifier, phi, mask), shard in zip(personal_models, shards):
        if features is None or classifier is None:
            raise ValueError(f"missing model for client {shard.client_id}")
        y = ds.labels[shard.test_indices]
        if y.size == 0:
            raise ValueError(f"client {shard.client_id} has an empty test split")
        pred = predict(_rows(features, y), classifier, class_mask=mask, phi=phi)
        per_client.append(float(np.mean(pred == y)))
    return float(np.mean(per_client)), per_client


def _class_means(features, labels, classes) -> np.ndarray:
    """Mean feature per class over rows labelled `labels`."""
    h = _rows(features, labels)
    means = []
    for c in classes:
        rows = h[labels == c]
        if rows.size == 0:
            raise ValueError(f"class {c} absent from the evaluation set")
        means.append(rows.mean(axis=0))
    return np.asarray(means)


def angle_report(features, ds, global_test_indices, local_entries=None) -> AngleReport:
    """Angle diagnostics for one evaluation point.

    Global: mean pairwise angle between all C class means of the global
    model's `features` on the global test set (every class must appear there).
    Local: for each entry (shard, local_features, local_classifier or None),
    the mean pairwise angle between that client's existing-class means of
    its own model's features on its test split, averaged over clients with
    >= 2 usable classes; local classifiers (learnable variants) additionally
    get their column angles split into the client's existing and missing
    class sets. Clients with fewer than two classes in a set are skipped.
    """
    all_classes = range(ds.n_classes)
    global_means = _class_means(features, ds.labels[global_test_indices], all_classes)
    global_angle = mean_pairwise_angle(global_means)

    local_angles, exist_angles, miss_angles = [], [], []
    skipped = 0
    for shard, local_features, local_clf in (local_entries or []):
        labels = ds.labels[shard.test_indices]
        present = [c for c in shard.existing_classes if np.any(labels == c)]
        if len(present) >= 2:
            local_angles.append(mean_pairwise_angle(
                _class_means(local_features, labels, present)))
        else:
            skipped += 1
        if local_clf is not None:
            cols = np.asarray(local_clf).T   # class vectors as rows
            existing = list(shard.existing_classes)
            missing = [c for c in all_classes if c not in shard.existing_classes]
            if len(existing) >= 2:
                exist_angles.append(mean_pairwise_angle(cols, existing))
            if len(missing) >= 2:
                miss_angles.append(mean_pairwise_angle(cols, missing))

    def _mean(vals):
        return float(np.mean(vals)) if vals else None

    return AngleReport(
        global_mean_angle=float(global_angle),
        local_exist_angle=_mean(local_angles),
        clf_exist_angle=_mean(exist_angles),
        clf_miss_angle=_mean(miss_angles),
        skipped_clients=skipped,
    )


def evaluate(layout: Layout, frame, global_row, personal, phi, mask, local,
             participants, shards, ds, global_test, e_h: float = 1.0) -> EvalReport:
    """GA, PA and angles at one evaluation point, forwarding each (model,
    split) pair once. A model is a row of `layout`, scored with its own
    learnable classifier when the layout has one, else with the fixed
    `frame` matrix. `global_row` is scored on `global_test`; the (N, P)
    `personal` rows, one per shard, on its test split with the
    (N, C) `phi` and boolean `mask` rows (None: unscaled, every class). The
    angles read the `participants`' rows of the (N, P) `local` matrix on
    their test splits -- with `local` None, their personal rows, whose
    features are reused. A forward's numeric failure is re-raised naming
    its model: the server row, or client <id>'s personal or local row."""
    def classifier(row):
        return frame if layout.n_classes is None else layout.views(row).classifier

    def features(row, split, model):
        try:
            return forward(layout, row, ds.features[split], e_h)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{model}: {exc}") from exc

    global_features = features(global_row, global_test, "server row")
    ga = generic_accuracy(global_features, classifier(global_row), ds.labels[global_test])
    scored = []
    for i, shard in enumerate(shards):
        scored.append((features(personal[i], shard.test_indices,
                                f"client {shard.client_id}'s personal row"),
                       classifier(personal[i]),
                       None if phi is None else phi[i], None if mask is None else mask[i]))
    pa, per_client = personal_accuracy(scored, shards, ds)
    local_rows = personal if local is None else local
    entries = []
    for i in participants:
        f = scored[i][0] if local is None else features(
            local[i], shards[i].test_indices, f"client {shards[i].client_id}'s local row")
        entries.append((shards[i], f, layout.views(local_rows[i]).classifier))
    angles = angle_report(global_features, ds, global_test, entries)
    return EvalReport(ga=ga, pa=pa, per_client_acc=tuple(per_client), angles=angles)
