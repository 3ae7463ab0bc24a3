"""The per-op training path: forward with a cache, ce_loss, backward and
sgd_step on a Model, a model held as separate tensors.

fedgela trains with one fused kernel (neuralnet.train_step) on model rows.
These ops are its bitwise reference: a batch run through forward -> logits
-> ce_loss -> backward -> (+ prox) -> sgd_step gives the bytes train_step
gives, and the op tests check each step on its own. A Model keeps its own
tensors, so the ops never read a row through neuralnet.Layout; `Model.row`
concatenates them in a row's order. `clone` copies a model, and sgd_step
counts its updates on the model (`version`), so that backward rejects a
cache taken before an update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fedgela.neuralnet import (
    Layout,
    _as_mask,
    _check_finite,
    _check_labels,
    _check_norms,
    init_backbone,
    logits,
)


@dataclass
class Model:
    """An MLP (ReLU hidden, linear output) as its weights and biases and,
    for a learnable classifier, its d x C matrix; `version` counts the
    sgd_step updates."""

    weights: list
    biases: list
    classifier: np.ndarray | None = None
    version: int = 0

    @classmethod
    def of(cls, layout: Layout, row: np.ndarray) -> "Model":
        """The model `row` of `layout`, as copies of its tensors."""
        v = layout.views(row)
        return cls([w.copy() for w in v.weights], [b.copy() for b in v.biases],
                   None if v.classifier is None else v.classifier.copy())

    @property
    def layer_sizes(self) -> tuple:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def tensors(self) -> list:
        """The weights, the biases and the classifier, if any: a row's order."""
        return self.weights + self.biases + ([] if self.classifier is None else [self.classifier])

    def row(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self.tensors()])


def init_model(layer_sizes, seed, classifier=None) -> Model:
    """init_backbone's MLP of `layer_sizes` from `seed`, with `classifier`."""
    layout = Layout(layer_sizes)
    model = Model.of(layout, init_backbone(layout, seed))
    model.classifier = classifier
    return model


def clone(params: Model) -> Model:
    return Model([w.copy() for w in params.weights], [b.copy() for b in params.biases],
                 None if params.classifier is None else params.classifier.copy())


@dataclass
class OptimizerState:
    """Momentum buffers for one parameter set.

    Update rule: buf <- momentum * buf + grad + weight_decay * param;
    param <- param - lr * buf.
    """

    lr: float
    momentum: float
    weight_decay: float
    vel_weights: list
    vel_biases: list
    vel_classifier: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: Model, lr, momentum, weight_decay) -> "OptimizerState":
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        return cls(
            lr=float(lr),
            momentum=float(momentum),
            weight_decay=float(weight_decay),
            vel_weights=[np.zeros_like(w) for w in params.weights],
            vel_biases=[np.zeros_like(b) for b in params.biases],
            vel_classifier=None if params.classifier is None else np.zeros_like(params.classifier),
        )


@dataclass(frozen=True)
class FeatureBatch:
    """Raw last-layer outputs and their projection onto the sqrt(e_h)
    sphere; as an array (logits, predict) it is the projection."""

    raw: np.ndarray
    h: np.ndarray
    e_h: float

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.h, dtype=dtype)


def _masked_softmax(z: np.ndarray, mask: np.ndarray):
    """Row softmax over masked columns; excluded columns get probability 0."""
    zm = np.where(mask[None, :], z, -np.inf)
    zmax = zm.max(axis=1, keepdims=True)
    ez = np.exp(zm - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    logsumexp = zmax + np.log(denom)
    return ez / denom, logsumexp


@dataclass
class ForwardCache:
    """Everything backward() needs: per-layer inputs, pre-activations, and
    the normalization state."""

    params: Model
    params_version: int
    layer_inputs: list   # input to each layer (x, then post-ReLU activations)
    pre_acts: list       # pre-activation of each layer
    raw: np.ndarray
    norms: np.ndarray
    h: np.ndarray
    e_h: float


def forward(params: Model, inputs, e_h: float = 1.0):
    """Run the MLP and project rows onto the sqrt(e_h) sphere.

    Returns (FeatureBatch, ForwardCache). The projection is exact
    (h = sqrt(e_h) * raw / |raw|) and rows with |raw| < 1e-12 are rejected
    rather than silently rescaled.
    """
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input width {x.shape[-1] if x.ndim else '?'} does not match "
            f"architecture input {params.layer_sizes[0]}"
        )
    if not e_h > 0:
        raise ValueError(f"e_h must be positive, got {e_h}")
    layer_inputs, pre_acts = [x], []
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        _check_finite(z[None], i)
        pre_acts.append(z)
        if i < params.n_layers - 1:
            a = np.maximum(z, 0.0)
            layer_inputs.append(a)
        else:
            a = z
    raw = a
    norms = np.linalg.norm(raw, axis=1)
    _check_norms(norms[None])
    h = math.sqrt(e_h) * raw / norms[:, None]
    cache = ForwardCache(
        params=params,
        params_version=params.version,
        layer_inputs=layer_inputs,
        pre_acts=pre_acts,
        raw=raw,
        norms=norms,
        h=h,
        e_h=float(e_h),
    )
    return FeatureBatch(raw=raw, h=h, e_h=float(e_h)), cache


def ce_loss(z: np.ndarray, labels, class_mask=None) -> float:
    """Mean -log softmax(z)[label] with the softmax restricted to the
    boolean class_mask (None: every class).

    Uses max-subtraction stabilization. Every label must lie in the mask.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    mask = _as_mask(class_mask, z.shape[1])
    _check_labels(y, mask)
    _, logsumexp = _masked_softmax(z, mask)
    losses = logsumexp[:, 0] - z[np.arange(len(y)), y]
    return float(losses.mean())


@dataclass
class Grads:
    """Gradients matching a Model's tensors."""

    weights: list
    biases: list
    classifier: np.ndarray | None = None

    def tensors(self) -> list:
        out = list(self.weights) + list(self.biases)
        if self.classifier is not None:
            out.append(self.classifier)
        return out


def backward(cache: ForwardCache, labels, phi=None, class_mask=None, frame=None) -> Grads:
    """Exact gradients of ce_loss(logits(forward(...))) w.r.t. the cached
    model's tensors: its backbone and learnable d x C classifier -- or, for
    a model without one, its backbone alone, the logits taken against the
    fixed `frame`. `phi` is a (C,) vector or None, `class_mask` a boolean
    (C,) vector or None.

    The chain rule runs through the sphere projection:
    dL/draw = (sqrt(e_h)/|raw|) * (dL/dh - (dL/dh . u) u), u = raw/|raw|.
    """
    if cache.params_version != cache.params.version:
        raise RuntimeError(
            "cache mismatch: parameters were updated after this forward pass"
        )
    params = cache.params
    classifier = params.classifier
    y = np.asarray(labels, dtype=np.int64)
    if (classifier is None) == (frame is None):
        raise ValueError("give exactly one of a learnable classifier and a fixed frame")
    w_eff = np.asarray(frame if classifier is None else classifier, dtype=np.float64)
    n_classes = w_eff.shape[1]
    mask = _as_mask(class_mask, n_classes)
    _check_labels(y, mask)
    phi_vec = np.ones(n_classes) if phi is None else phi
    batch = len(y)

    z = (cache.h @ w_eff) * phi_vec[None, :]
    probs, _ = _masked_softmax(z, mask)
    g_z = probs.copy()
    g_z[np.arange(batch), y] -= 1.0
    g_z /= batch

    g_zpre = g_z * phi_vec[None, :]          # z = (h @ W) * phi
    clf_grad = None if classifier is None else cache.h.T @ g_zpre
    g_h = g_zpre @ w_eff.T

    u = cache.raw / cache.norms[:, None]
    radial = np.sum(g_h * u, axis=1, keepdims=True)
    g = (math.sqrt(cache.e_h) / cache.norms)[:, None] * (g_h - radial * u)

    grads_w = [None] * params.n_layers
    grads_b = [None] * params.n_layers
    for layer in reversed(range(params.n_layers)):
        grads_w[layer] = cache.layer_inputs[layer].T @ g
        grads_b[layer] = g.sum(axis=0)
        if layer > 0:
            g = (g @ params.weights[layer].T) * (cache.pre_acts[layer - 1] > 0)
    return Grads(weights=grads_w, biases=grads_b, classifier=clf_grad)


def sgd_step(params: Model, grads: Grads, state: OptimizerState):
    """One momentum-SGD step in place; returns (params, state).

    buf <- momentum * buf + grad + weight_decay * param, then
    param <- param - lr * buf. A learnable classifier is updated the same
    way.
    """
    tensors = list(zip(params.weights, grads.weights, state.vel_weights))
    tensors += list(zip(params.biases, grads.biases, state.vel_biases))
    if params.classifier is not None:
        if grads.classifier is None or state.vel_classifier is None:
            raise ValueError("classifier update requested without gradient/state")
        tensors.append((params.classifier, grads.classifier, state.vel_classifier))
    for p, g, v in tensors:
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        v *= state.momentum
        v += g
        if state.weight_decay:
            v += state.weight_decay * p
        p -= state.lr * v
    params.version += 1
    return params, state
