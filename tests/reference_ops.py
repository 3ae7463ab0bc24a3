"""The per-op training path: forward with a cache, ce_loss, backward and
sgd_step on BackboneParams.

fedgela trains with one fused kernel (neuralnet.train_step). These ops are
its bitwise reference: a batch run through forward -> logits -> ce_loss ->
backward -> (+ prox) -> sgd_step gives the bytes train_step gives, and the
op tests check each step on its own. `clone` copies a parameter set, and
sgd_step counts its updates on the parameter object (`version`), so that
backward rejects a cache taken before an update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fedgela.neuralnet import (
    BackboneParams,
    _as_mask,
    _check_finite,
    _check_labels,
    _check_norms,
    logits,
)


def _version(params: BackboneParams) -> int:
    """Number of sgd_step updates of params (0 until the first)."""
    return getattr(params, "version", 0)


def clone(params: BackboneParams) -> BackboneParams:
    return BackboneParams(
        weights=[w.copy() for w in params.weights],
        biases=[b.copy() for b in params.biases],
        layer_sizes=params.layer_sizes,
    )


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
    def for_params(cls, params: BackboneParams, lr, momentum, weight_decay,
                   classifier: np.ndarray | None = None) -> "OptimizerState":
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        return cls(
            lr=float(lr),
            momentum=float(momentum),
            weight_decay=float(weight_decay),
            vel_weights=[np.zeros_like(w) for w in params.weights],
            vel_biases=[np.zeros_like(b) for b in params.biases],
            vel_classifier=None if classifier is None else np.zeros_like(classifier),
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

    params: BackboneParams
    params_version: int
    layer_inputs: list   # input to each layer (x, then post-ReLU activations)
    pre_acts: list       # pre-activation of each layer
    raw: np.ndarray
    norms: np.ndarray
    h: np.ndarray
    e_h: float


def forward(params: BackboneParams, inputs, e_h: float = 1.0):
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
        params_version=_version(params),
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
    """Gradients matching BackboneParams (plus the classifier when learnable)."""

    weights: list
    biases: list
    classifier: np.ndarray | None = None

    def tensors(self) -> list:
        out = list(self.weights) + list(self.biases)
        if self.classifier is not None:
            out.append(self.classifier)
        return out


def backward(cache: ForwardCache, labels, classifier, phi=None, class_mask=None,
             frame=None) -> Grads:
    """Exact gradients of ce_loss(logits(forward(...))) w.r.t. the backbone
    and the learnable d x C `classifier` matrix -- or, with classifier None,
    w.r.t. the backbone alone, the logits taken against the fixed `frame`.
    `phi` is a (C,) vector or None, `class_mask` a boolean (C,) vector or
    None.

    The chain rule runs through the sphere projection:
    dL/draw = (sqrt(e_h)/|raw|) * (dL/dh - (dL/dh . u) u), u = raw/|raw|.
    """
    if cache.params_version != _version(cache.params):
        raise RuntimeError(
            "cache mismatch: parameters were updated after this forward pass"
        )
    params = cache.params
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


def sgd_step(params: BackboneParams, grads: Grads, state: OptimizerState,
             classifier: np.ndarray | None = None):
    """One momentum-SGD step in place; returns (params, state).

    buf <- momentum * buf + grad + weight_decay * param, then
    param <- param - lr * buf. When a learnable classifier and its gradient
    are present they are updated the same way.
    """
    tensors = list(zip(params.weights, grads.weights, state.vel_weights))
    tensors += list(zip(params.biases, grads.biases, state.vel_biases))
    if classifier is not None:
        if grads.classifier is None or state.vel_classifier is None:
            raise ValueError("classifier update requested without gradient/state")
        tensors.append((classifier, grads.classifier, state.vel_classifier))
    for p, g, v in tensors:
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        v *= state.momentum
        v += g
        if state.weight_decay:
            v += state.weight_decay * p
        p -= state.lr * v
    params.version = _version(params) + 1
    return params, state
