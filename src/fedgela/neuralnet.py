"""Minimal MLP backbone with exact gradients and an SGD optimizer.

A model is one float64 row -- or K models the rows of a (K, P) matrix --
laid out by a Layout: the MLP's weights, then its biases, then, for the
algorithms that learn it, a d x C classifier matrix, each flattened
row-major. Layout.views reads a row or a matrix as its tensors (Layers);
every public function takes a model as (layout, row).

Forward passes project features onto the sqrt(E_H) sphere, logits are a
bilinear form against a d x C classifier matrix -- a fixed simplex frame
(optionally column-scaled by a per-client (C,) phi vector) or a learnable
matrix -- and the cross-entropy softmax can be restricted to a boolean (C,)
class mask. Training runs train_step: gradient_pass, whose gradients are
hand-derived, including through the sphere projection, then the
momentum-SGD update. finite_diff_check checks gradient_pass against
central finite differences of its own loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "Layout",
    "Layers",
    "init_backbone",
    "init_classifier",
    "forward",
    "logits",
    "FlatModel",
    "flatten",
    "gradient_pass",
    "train_step",
    "finite_diff_check",
    "save_checkpoint",
    "load_checkpoint",
]

NORM_EPS = 1e-12
CHECKPOINT_VERSION = 1


class Layers(NamedTuple):
    """A model's tensors as views of its row -- or, for a (K, P) matrix of
    rows, (K, ...) stacks of them."""

    weights: list
    biases: list
    classifier: np.ndarray | None


@dataclass(frozen=True)
class Layout:
    """How a model row holds an MLP (ReLU hidden, linear output) of widths
    `layer_sizes` and, given `n_classes`, a learnable d x C classifier: its
    weights, then its biases, then the classifier, each row-major."""

    layer_sizes: tuple
    n_classes: int | None = None

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        object.__setattr__(self, "layer_sizes", sizes)

    def shapes(self, bias: tuple = ()) -> list:
        """The tensors' shapes in row order, each bias shaped bias + (fan_out,)."""
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        shapes = pairs + [bias + (fan_out,) for _, fan_out in pairs]
        if self.n_classes is not None:
            shapes.append((self.layer_sizes[-1], self.n_classes))
        return shapes

    @property
    def size(self) -> int:
        """P, the length of a row."""
        return sum(math.prod(s) for s in self.shapes())

    def views(self, flat: np.ndarray, bias: tuple = ()) -> Layers:
        """The Layers of a (P,) row -- or (K, ...) stacks of them of a (K, P)
        matrix -- as views of `flat`, each bias shaped bias + (fan_out,). A
        last axis that is not P long raises ValueError naming both sizes."""
        shapes = self.shapes(bias)
        sizes = [math.prod(s) for s in shapes]
        if flat.shape[-1] != sum(sizes):
            raise ValueError(f"a model row of this layout holds {sum(sizes)} entries, "
                             f"got {flat.shape[-1]}")
        lead, v, start = flat.shape[:-1], [], 0
        for shape, size in zip(shapes, sizes):
            v.append(flat[..., start:start + size].reshape(lead + shape))
            start += size
        n = len(self.layer_sizes) - 1
        return Layers(v[:n], v[n:2 * n], None if self.n_classes is None else v[2 * n])


def init_backbone(layout: Layout, seed, classifier_seed=None) -> np.ndarray:
    """A row of `layout`: seeded uniform [-s, s] weights with
    s = sqrt(6 / (fan_in + fan_out)), zero biases and, exactly when the
    layout has a classifier, init_classifier's from `classifier_seed`."""
    if (layout.n_classes is None) != (classifier_seed is None):
        raise ValueError("give a classifier_seed exactly when the layout has a classifier")
    row = np.zeros(layout.size)
    model = layout.views(row)
    rng = np.random.default_rng(seed)
    for w in model.weights:
        s = math.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-s, s, size=w.shape)
    if model.classifier is not None:
        model.classifier[...] = init_classifier(*model.classifier.shape, classifier_seed)
    return row


def init_classifier(feature_dim: int, n_classes: int, seed) -> np.ndarray:
    """Learnable d x C classifier matrix (no bias), same init rule as layers."""
    rng = np.random.default_rng(seed)
    s = math.sqrt(6.0 / (feature_dim + n_classes))
    return rng.uniform(-s, s, size=(feature_dim, n_classes))


def _check_finite(z: np.ndarray, layer: int) -> None:
    """Rejects non-finite activations of a (K, B, n) stack."""
    if not np.isfinite(z).all():
        raise FloatingPointError(f"numeric overflow: non-finite activation in layer {layer}")


def _check_norms(norms: np.ndarray) -> None:
    """Rejects feature rows of norm below NORM_EPS in a (K, B) stack of norms;
    the message names the batch row within the first failing model's batch."""
    low = norms < NORM_EPS
    if low.any():
        k = int(np.flatnonzero(low.any(axis=1))[0])
        bad = int(np.argmin(norms[k]))
        raise FloatingPointError(f"degenerate feature: row {bad} has norm "
                                 f"{norms[k, bad]:.3g} < {NORM_EPS}")


def _forward_half(weights, biases, x: np.ndarray, e_h: float):
    """The kernel's forward half: K models (weight and (K, 1, fan_out) bias
    stacks), each on its batch of the (K, B, d) stack x, projected onto the
    sqrt(e_h) sphere. Returns each layer's input, the raw outputs, their
    (K, B, 1) norms and the projections."""
    last = len(weights) - 1
    acts = [x]                         # input to each layer
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[-1], w)
        z += b
        _check_finite(z, i)
        if i < last:
            acts.append(np.maximum(z, 0.0, out=z))
    raw = z
    norms = np.sqrt((raw * raw).sum(axis=2))
    _check_norms(norms)
    norms = norms[..., None]
    h = np.multiply(raw, math.sqrt(e_h))
    h /= norms
    return acts, raw, norms, h


def forward(layout: Layout, row: np.ndarray, inputs, e_h: float) -> np.ndarray:
    """The B x d features of the B input rows: the outputs of the MLP of the
    model `row` of `layout` projected onto the sqrt(e_h) sphere by the
    training kernel's forward half, run on a one-model stack.

    The projection is exact (h = sqrt(e_h) * raw / |raw|) and rows with
    |raw| < 1e-12 are rejected rather than silently rescaled.
    """
    x = np.asarray(inputs, dtype=np.float64)
    width = layout.layer_sizes[0]
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(
            f"input width {x.shape[-1] if x.ndim else '?'} does not match "
            f"architecture input {width}"
        )
    if not e_h > 0:
        raise ValueError(f"e_h must be positive, got {e_h}")
    if np.ndim(row) != 1:
        raise ValueError(f"forward takes one model row, got an array of shape {np.shape(row)}")
    weights, biases, _ = layout.views(row[None], (1,))
    _, _, _, h = _forward_half(weights, biases, x[None], e_h)
    return h[0]


def _as_phi(phi, n_classes: int) -> np.ndarray:
    """phi as a float (n_classes,) vector of finite, non-negative class
    scales."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (n_classes,):
        raise ValueError(f"phi has shape {phi.shape}, not one entry per class "
                         f"of C={n_classes}")
    if not np.all(np.isfinite(phi)) or np.any(phi < 0):
        raise ValueError("phi entries must be finite and non-negative")
    return phi


def logits(features, classifier, phi=None) -> np.ndarray:
    """Bilinear logits z[b, c] = phi_c * <classifier_c, h_b> (no bias).

    `features` is a B x d array, `classifier` a d x C matrix (a fixed
    frame's or a learnable one) and `phi` a (C,) vector of non-negative
    class scales, or None for all ones.
    """
    h = np.asarray(features, dtype=np.float64)
    w = np.asarray(classifier, dtype=np.float64)
    if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[0]:
        raise ValueError(f"feature dim {h.shape} does not match classifier {w.shape}")
    z = h @ w
    if phi is not None:
        z = z * _as_phi(phi, w.shape[1])[None, :]
    return z


def _as_mask(class_mask, n_classes: int) -> np.ndarray:
    """The boolean (n_classes,) class mask: every class for None, else the
    given boolean vector, which must select at least one class."""
    if class_mask is None:
        return np.ones(n_classes, dtype=bool)
    mask = np.asarray(class_mask)
    if mask.dtype != bool or mask.shape != (n_classes,):
        raise ValueError(f"class mask must be a boolean vector with one entry per class "
                         f"of C={n_classes}, got {mask.dtype} of shape {mask.shape}")
    if not mask.any():
        raise ValueError(f"class mask selects none of the C={n_classes} classes")
    return mask


def _check_labels(y: np.ndarray, mask: np.ndarray) -> None:
    out = y[(y < 0) | (y >= len(mask))]
    if out.size:
        raise ValueError(f"invalid label: class {out[0]} is outside 0..{len(mask) - 1}")
    if not mask[y].all():
        bad = y[~mask[y]][0]
        raise ValueError(f"invalid label: class {bad} is outside the class mask")


@dataclass
class FlatModel:
    """A stack of K models held as the rows of one contiguous (K, P) float64
    matrix `theta`, each laid out by `layout`, and what they train against.
    `grad` and `vel` share the layout, so an optimizer update is a few
    whole-matrix operations. The (K, ...) stacks `weights`,
    `biases` (K, 1, fan_out), `classifier` and their `grad_*` twins are views
    of theta and grad, derived on construction. The logits are taken against `w_eff`: the
    shared d x C `frame`, or else the rows' own classifiers. `phi` and
    `mask` are the rows' (K, 1, C) class scales and existing classes, or
    None (all ones, every class). With a proximal weight `lambda_prox` > 0,
    `prox_ref` is the (P,) reference row and `prox` the (K, P) scratch
    matrix the proximal term is computed in; else both are None."""

    theta: np.ndarray
    grad: np.ndarray
    vel: np.ndarray
    layout: Layout
    frame: np.ndarray | None = None
    phi: np.ndarray | None = None
    mask: np.ndarray | None = None
    lambda_prox: float = 0.0
    prox_ref: np.ndarray | None = None
    prox: np.ndarray | None = None

    def __post_init__(self):
        self.weights, self.biases, self.classifier = self.layout.views(self.theta, (1,))
        self.grad_weights, self.grad_biases, self.grad_classifier = self.layout.views(
            self.grad, (1,))
        self.w_eff = self.classifier if self.frame is None else self.frame

    def rows(self, start: int, stop: int) -> "FlatModel":
        """Models start..stop-1 as a stack of views of this one, their phi,
        mask and prox rows included."""
        s = slice(start, stop)
        per_row = {f: getattr(self, f) for f in ("theta", "grad", "vel", "phi", "mask", "prox")}
        return replace(self, **{f: None if a is None else a[s] for f, a in per_row.items()})


def flatten(layout: Layout, row: np.ndarray, k: int, frame=None, phi=None, mask=None,
            lambda_prox: float = 0.0) -> FlatModel:
    """A stack of k copies of the model `row` of `layout` (its classifier
    included, if the layout has one) with zero velocity, to be trained
    against the fixed d x C `frame` (for a layout without a classifier),
    with the (k, C) rows `phi` of class scales and `mask` of existing
    classes (None: all ones, every class) and, for lambda_prox > 0, the
    proximal term 0.5 * lambda_prox * |theta - row|^2, whose scratch matrix
    the stack owns."""
    if lambda_prox < 0:
        raise ValueError(f"lambda_prox must be >= 0, got {lambda_prox}")
    theta = np.tile(row, (k, 1))
    prox = lambda_prox > 0
    return FlatModel(theta, np.zeros_like(theta), np.zeros_like(theta), layout,
                     frame=None if frame is None else np.asarray(frame, dtype=np.float64),
                     phi=None if phi is None else phi[:, None, :],
                     mask=None if mask is None or mask.all() else mask[:, None, :],
                     lambda_prox=float(lambda_prox), prox_ref=row if prox else None,
                     prox=np.empty_like(theta) if prox else None)


def gradient_pass(model: FlatModel, x: np.ndarray, hot: np.ndarray, e_h: float) -> np.ndarray:
    """Loss and gradient of each of the m models of a stack, each on its own
    batch: writes the gradient into `model.grad` and returns the m losses.

    `x` is (m, B, d) and `hot` the (m, B, C) one-hot boolean stack of the
    labels. The loss is the mean cross-entropy of the model's phi-scaled
    logits against its `w_eff` under its masked softmax; the caller checks
    that the labels lie in the mask. On a stack with a proximal term the
    gradient also carries lambda_prox * (theta - prox_ref), the gradient of
    0.5 * lambda_prox * |theta - prox_ref|^2, which the returned losses leave
    out; it is computed in `model.prox`, so a pass allocates no
    parameter-sized array. A failed numeric guard raises FloatingPointError.
    """
    weights, w_eff, phi, mask = model.weights, model.w_eff, model.phi, model.mask
    acts, raw, norms, h = _forward_half(weights, model.biases, x, e_h)
    z = np.matmul(h, w_eff)
    if phi is not None:
        z *= phi
    zm = z if mask is None else np.where(mask, z, -np.inf)
    zmax = zm.max(axis=2, keepdims=True)
    probs = np.exp(zm - zmax)
    denom = probs.sum(axis=2, keepdims=True)
    m, batch = hot.shape[:2]
    losses = (zmax + np.log(denom))[..., 0] - z[hot].reshape(m, batch)
    loss = losses.sum(axis=1) / batch  # what each row's losses.mean() computes
    if not np.isfinite(loss).all():
        raise FloatingPointError("non-finite loss")

    g = probs
    g /= denom
    g -= hot                           # subtracts 0.0 off the label: bits unchanged
    g /= batch                         # dL/dz
    if phi is not None:
        g *= phi                       # dL/d(h @ w_eff)
    if model.grad_classifier is not None:
        np.matmul(h.swapaxes(1, 2), g, out=model.grad_classifier)
    g = np.matmul(g, w_eff.swapaxes(-1, -2))   # dL/dh
    u = np.divide(raw, norms, out=raw)
    radial = (g * u).sum(axis=2, keepdims=True)
    u *= radial
    g -= u
    g *= math.sqrt(e_h) / norms        # (sqrt(e_h) / norms) * (g - radial * u)
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(acts[layer].swapaxes(1, 2), g, out=model.grad_weights[layer])
        g.sum(axis=1, keepdims=True, out=model.grad_biases[layer])
        if layer:
            g = np.matmul(g, weights[layer].swapaxes(1, 2))
            g *= acts[layer] > 0

    if model.prox is not None:
        diff = np.subtract(model.theta, model.prox_ref, out=model.prox)
        diff *= model.lambda_prox      # the roundings of lambda_prox * (theta - prox_ref)
        model.grad += diff
    return loss


def train_step(model: FlatModel, x: np.ndarray, hot: np.ndarray, *, e_h: float,
               lr: float, momentum: float, weight_decay: float) -> np.ndarray:
    """One momentum-SGD step of each of the m models of a stack, each on its
    own batch, in place on `model`; returns the m losses.

    gradient_pass fills `model.grad`; then, per entry,
    vel <- momentum * vel + grad + weight_decay * theta and
    theta <- theta - lr * vel, with `model.grad` reused as scratch. So a step
    allocates no parameter-sized array. Each row runs the floating-point
    operations of the per-op path kept in tests/reference_ops.py (forward ->
    logits -> ce_loss -> backward -> + prox -> sgd_step) in the same order, so
    it matches that path bit for bit.
    """
    loss = gradient_pass(model, x, hot, e_h)
    theta, grad, vel = model.theta, model.grad, model.vel
    vel *= momentum
    vel += grad                        # grad is spent: the rest reuse it
    if weight_decay:
        vel += np.multiply(theta, weight_decay, out=grad)
    theta -= np.multiply(vel, lr, out=grad)
    return loss


def finite_diff_check(layout: Layout, row: np.ndarray, inputs, labels, frame=None,
                      phi=None, class_mask=None,
                      e_h: float = 1.0, step: float = 1e-5, n_probes: int = 16,
                      seed=0, lambda_prox: float = 0.0) -> float:
    """Worst relative error between the gradient train_step steps on and
    central differences of the loss.

    The model is `row` of `layout`, as the one row of a flatten(layout, row,
    1, ...) stack: it scores with its own learnable classifier when the
    layout has one, else with the fixed d x C `frame` matrix. `phi` is a
    (C,) vector of class scales or None, `class_mask` a boolean (C,) vector
    or None (every class). The analytic gradient is gradient_pass's, and the
    numeric loss is gradient_pass's loss plus
    0.5 * lambda_prox * |theta - ref|^2. The stack's proximal reference ref
    is set at a seeded offset theta + 0.1 * N(0, 1) from the probe point,
    where the proximal gradient is non-zero. Probes n_probes randomly selected scalar parameters: a
    tensor, then an entry of it. Steps much below ~1e-7 are unreliable due
    to cancellation; the default 1e-5 balances truncation and roundoff. The
    denominator is floored at 1e-4 so probes whose true gradient is
    essentially zero (dead ReLU paths) do not divide rounding noise by ~0.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if not e_h > 0:
        raise ValueError(f"e_h must be positive, got {e_h}")
    if (layout.n_classes is None) == (frame is None):
        raise ValueError("give a fixed frame exactly when the model has no learnable classifier")
    n_classes = layout.n_classes or np.shape(frame)[-1]
    phi = None if phi is None else _as_phi(phi, n_classes)[None]
    y = np.asarray(labels, dtype=np.int64)
    mask = _as_mask(class_mask, n_classes)
    _check_labels(y, mask)
    model = flatten(layout, row, 1, frame, phi, mask[None], lambda_prox)
    theta = model.theta[0]
    x = np.asarray(inputs, dtype=np.float64)[None]
    hot = (y[:, None] == np.arange(n_classes))[None]
    if model.prox is not None:
        offset = np.random.default_rng(np.append(seed, 1)).standard_normal(theta.size)
        model.prox_ref = theta + 0.1 * offset

    def loss() -> float:
        value = float(gradient_pass(model, x, hot, e_h)[0])
        if model.prox is not None:
            value += 0.5 * lambda_prox * float(np.sum((theta - model.prox_ref) ** 2))
        return value

    gradient_pass(model, x, hot, e_h)
    analytic_grad = model.grad[0].copy()
    bounds = np.cumsum([0] + [math.prod(s) for s in layout.shapes()])  # tensor ti: bounds[ti:ti+2]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(n_probes)):
        ti = int(rng.integers(len(bounds) - 1))
        j = int(bounds[ti] + rng.integers(bounds[ti + 1] - bounds[ti]))
        old = theta[j]
        theta[j] = old + step
        loss_plus = loss()
        theta[j] = old - step
        loss_minus = loss()
        theta[j] = old
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = float(analytic_grad[j])
        denom = max(abs(numeric), abs(analytic), 1e-4)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def _tensor_names(layout: Layout) -> list:
    """A checkpoint's names for the tensors of a row of `layout`, in row order."""
    n = len(layout.layer_sizes) - 1
    names = [f"w{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    return names if layout.n_classes is None else names + ["classifier"]


def save_checkpoint(path, layout: Layout, row: np.ndarray) -> None:
    """Lossless checkpoint (architecture + tensors, row-major) of the model
    `row` of `layout` and its classifier, if any, to a path or binary file."""
    weights, biases, classifier = layout.views(row)
    payload = {
        "format_version": np.int64(CHECKPOINT_VERSION),
        "layer_sizes": np.asarray(layout.layer_sizes, dtype=np.int64),
    }
    # a layout without a classifier names one tensor fewer, so zip drops the None
    payload.update(zip(_tensor_names(layout), weights + biases + [classifier]))
    np.savez(path, **payload)


def load_checkpoint(path) -> tuple:
    """Inverse of save_checkpoint: (layout, row). A missing tensor, or one
    whose shape is not the layout's, raises ValueError naming it."""
    with np.load(path) as data:
        def tensor(name):
            if name not in data.files:
                raise ValueError(f"checkpoint {path} has no tensor {name}")
            return data[name]

        version = int(tensor("format_version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        clf = data["classifier"].shape[-1] if "classifier" in data.files else None
        layout = Layout(tuple(tensor("layer_sizes")), clf)
        tensors = []
        for name, shape in zip(_tensor_names(layout), layout.shapes()):
            tensors.append(tensor(name))
            if tensors[-1].shape != shape:
                raise ValueError(f"checkpoint tensor {name} has shape {tensors[-1].shape}, "
                                 f"expected {shape}")
    return layout, np.concatenate([t.ravel() for t in tensors], dtype=np.float64)
