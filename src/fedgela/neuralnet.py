"""Minimal MLP backbone with exact gradients and an SGD optimizer.

Forward passes project features onto the sqrt(E_H) sphere, logits are a
bilinear form against a fixed simplex frame (optionally column-scaled by a
per-client phi vector) or a learnable matrix, and the cross-entropy softmax
can be restricted to a class mask. Gradients are hand-derived, including
through the sphere projection, and checked against central finite
differences by finite_diff_check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .etfgeom import EtfClassifier

__all__ = [
    "BackboneParams",
    "OptimizerState",
    "FeatureBatch",
    "ForwardCache",
    "PhiVector",
    "Grads",
    "init_backbone",
    "init_classifier",
    "forward",
    "logits",
    "ce_loss",
    "backward",
    "sgd_step",
    "FlatModel",
    "flatten",
    "train_step",
    "finite_diff_check",
    "lpm_feature_fit",
    "save_checkpoint",
    "load_checkpoint",
]

NORM_EPS = 1e-12
CHECKPOINT_VERSION = 1


@dataclass
class BackboneParams:
    """Weight matrices and biases of an MLP (ReLU hidden, linear output)."""

    weights: list
    biases: list
    layer_sizes: tuple
    version: int = 0  # bumped by sgd_step; lets caches detect staleness

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("layer count does not match layer_sizes")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(
                    f"layer {i} shapes {w.shape}/{b.shape} do not chain for {sizes}"
                )
        self.layer_sizes = sizes

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def feature_dim(self) -> int:
        return self.layer_sizes[-1]

    def tensors(self) -> list:
        return list(self.weights) + list(self.biases)

    def clone(self) -> "BackboneParams":
        return BackboneParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            layer_sizes=self.layer_sizes,
            version=0,
        )


def init_backbone(layer_sizes, seed) -> BackboneParams:
    """Seeded uniform [-s, s] init with s = sqrt(6 / (fan_in + fan_out))."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        s = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-s, s, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return BackboneParams(weights=weights, biases=biases, layer_sizes=sizes)


def init_classifier(feature_dim: int, n_classes: int, seed) -> np.ndarray:
    """Learnable d x C classifier matrix (no bias), same init rule as layers."""
    rng = np.random.default_rng(seed)
    s = math.sqrt(6.0 / (feature_dim + n_classes))
    return rng.uniform(-s, s, size=(feature_dim, n_classes))


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
    """Raw last-layer outputs and their projection onto the sqrt(e_h) sphere."""

    raw: np.ndarray
    h: np.ndarray
    e_h: float


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


@dataclass(frozen=True)
class PhiVector:
    """Per-class non-negative column scalings of the classifier."""

    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", np.array(self.phi, dtype=np.float64, copy=True))
        self.phi.setflags(write=False)
        if self.phi.ndim != 1:
            raise ValueError("phi must be a 1-D class vector")
        if not np.all(np.isfinite(self.phi)) or np.any(self.phi < 0):
            raise ValueError("phi entries must be finite and non-negative")

    @property
    def n_classes(self) -> int:
        return len(self.phi)

    @property
    def mean(self) -> float:
        return float(self.phi.mean())


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
        params_version=params.version,
        layer_inputs=layer_inputs,
        pre_acts=pre_acts,
        raw=raw,
        norms=norms,
        h=h,
        e_h=float(e_h),
    )
    return FeatureBatch(raw=raw, h=h, e_h=float(e_h)), cache


def _effective_matrix(classifier) -> np.ndarray:
    """d x C matrix of classifier vectors (sqrt(scale)*m for a fixed frame)."""
    if isinstance(classifier, EtfClassifier):
        return classifier.classifier
    return np.asarray(classifier, dtype=np.float64)


def logits(features, classifier, phi: PhiVector | None = None) -> np.ndarray:
    """Bilinear logits z[b, c] = phi_c * <classifier_c, h_b> (no bias).

    `features` is a FeatureBatch or a B x d array; `classifier` is an
    EtfClassifier or a learnable d x C matrix; phi=None means all-ones.
    """
    h = features.h if isinstance(features, FeatureBatch) else np.asarray(features, float)
    w = _effective_matrix(classifier)
    if h.ndim != 2 or h.shape[1] != w.shape[0]:
        raise ValueError(f"feature dim {h.shape} does not match classifier {w.shape}")
    z = h @ w
    if phi is not None:
        if phi.n_classes != w.shape[1]:
            raise ValueError(
                f"phi length {phi.n_classes} does not match class count {w.shape[1]}"
            )
        z = z * phi.phi[None, :]
    return z


def _as_mask(class_mask, n_classes: int) -> np.ndarray:
    if class_mask is None:
        return np.ones(n_classes, dtype=bool)
    mask = np.zeros(n_classes, dtype=bool)
    arr = np.asarray(list(class_mask) if isinstance(class_mask, (set, frozenset)) else class_mask)
    if arr.dtype == bool:
        if len(arr) != n_classes:
            raise ValueError("boolean mask length must equal class count")
        mask = arr.copy()
    else:
        mask[arr.astype(int)] = True
    if not mask.any():
        raise ValueError("class mask must be nonempty")
    return mask


def _check_labels(y: np.ndarray, mask: np.ndarray) -> None:
    if not mask[y].all():
        bad = y[~mask[y]][0]
        raise ValueError(f"invalid label: class {bad} is outside the class mask")


def _masked_softmax(z: np.ndarray, mask: np.ndarray):
    """Row softmax over masked columns; excluded columns get probability 0."""
    zm = np.where(mask[None, :], z, -np.inf)
    zmax = zm.max(axis=1, keepdims=True)
    ez = np.exp(zm - zmax)
    denom = ez.sum(axis=1, keepdims=True)
    logsumexp = zmax + np.log(denom)
    return ez / denom, logsumexp


def ce_loss(z: np.ndarray, labels, class_mask=None) -> float:
    """Mean -log softmax(z)[label] with the softmax restricted to class_mask.

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


def backward(cache: ForwardCache, labels, classifier, phi: PhiVector | None = None,
             class_mask=None) -> Grads:
    """Exact gradients of ce_loss(logits(forward(...))) w.r.t. the backbone
    (and the classifier matrix when it is learnable; a fixed frame gets none).

    The chain rule runs through the sphere projection:
    dL/draw = (sqrt(e_h)/|raw|) * (dL/dh - (dL/dh . u) u), u = raw/|raw|.
    """
    if cache.params_version != cache.params.version:
        raise RuntimeError(
            "cache mismatch: parameters were updated after this forward pass"
        )
    params = cache.params
    y = np.asarray(labels, dtype=np.int64)
    w_eff = _effective_matrix(classifier)
    n_classes = w_eff.shape[1]
    mask = _as_mask(class_mask, n_classes)
    _check_labels(y, mask)
    phi_vec = np.ones(n_classes) if phi is None else phi.phi
    batch = len(y)

    z = (cache.h @ w_eff) * phi_vec[None, :]
    probs, _ = _masked_softmax(z, mask)
    g_z = probs.copy()
    g_z[np.arange(batch), y] -= 1.0
    g_z /= batch

    g_zpre = g_z * phi_vec[None, :]          # z = (h @ W) * phi
    clf_grad = None
    if not isinstance(classifier, EtfClassifier):
        clf_grad = cache.h.T @ g_zpre
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
    params.version += 1
    return params, state


@dataclass
class FlatModel:
    """A stack of K models, each a backbone plus a learnable classifier when
    there is one, held as the rows of one contiguous (K, P) float64 matrix
    `theta` (weights, biases, then the classifier). Every layer view is a
    (K, ...) stack of row views; `grad` and `vel` share the layout, so an
    optimizer update is a few whole-matrix operations."""

    theta: np.ndarray
    grad: np.ndarray
    vel: np.ndarray
    layer_sizes: tuple
    cuts: np.ndarray                    # column where each tensor after the first starts
    shapes: list                        # tensor shapes, biases as (1, fan_out)
    weights: list                       # (K, fan_in, fan_out) views of theta
    biases: list                        # (K, 1, fan_out) views of theta
    classifier: np.ndarray | None       # (K, d, C) view of theta
    grad_weights: list                  # the same views of grad
    grad_biases: list
    grad_classifier: np.ndarray | None

    def rows(self, start: int, stop: int) -> "FlatModel":
        """Models start..stop-1 as a stack of views of this one."""
        s = slice(start, stop)

        def cut(ts):
            return [t[s] for t in ts]

        return FlatModel(
            theta=self.theta[s], grad=self.grad[s], vel=self.vel[s],
            layer_sizes=self.layer_sizes, cuts=self.cuts, shapes=self.shapes,
            weights=cut(self.weights), biases=cut(self.biases),
            classifier=None if self.classifier is None else self.classifier[s],
            grad_weights=cut(self.grad_weights), grad_biases=cut(self.grad_biases),
            grad_classifier=None if self.grad_classifier is None else self.grad_classifier[s])

    def row(self, k: int):
        """(BackboneParams, classifier or None) of model k, as views of
        theta[k], copied out of a stack of several so that they do not keep
        the whole stack alive."""
        flat = self.theta[k:k + 1]
        p = _views(flat.copy() if len(self.theta) > 1 else flat, self.cuts, self.shapes)
        n = len(self.weights)
        params = BackboneParams([w[0] for w in p[:n]], [b[0, 0] for b in p[n:2 * n]],
                                self.layer_sizes)
        return params, p[2 * n][0] if len(p) > 2 * n else None


def _views(flat: np.ndarray, cuts, shapes) -> list:
    """(K, ...) views of the tensors laid out along the rows of flat."""
    return [v.reshape((len(flat),) + s) for v, s in zip(np.split(flat, cuts, axis=1), shapes)]


def flatten(params: BackboneParams, classifier: np.ndarray | None, k: int) -> FlatModel:
    """Copy params (and a learnable d x C classifier, or None) into each of
    the k rows of a FlatModel with zero velocity."""
    tensors = params.tensors() + ([] if classifier is None else [classifier])
    n = params.n_layers
    shapes = [t.shape for t in tensors]
    for i in range(n, 2 * n):
        shapes[i] = (1,) + shapes[i]    # biases broadcast over a batch
    theta = np.tile(np.concatenate([np.ravel(t) for t in tensors]), (k, 1))
    cuts = np.cumsum([t.size for t in tensors])[:-1]
    grad = np.zeros_like(theta)
    p, g = _views(theta, cuts, shapes), _views(grad, cuts, shapes)
    learnable = classifier is not None
    return FlatModel(theta=theta, grad=grad, vel=np.zeros_like(theta),
                     layer_sizes=params.layer_sizes, cuts=cuts, shapes=shapes,
                     weights=p[:n], biases=p[n:2 * n],
                     classifier=p[-1] if learnable else None,
                     grad_weights=g[:n], grad_biases=g[n:2 * n],
                     grad_classifier=g[-1] if learnable else None)


def train_step(model: FlatModel, x: np.ndarray, hot: np.ndarray, *, w_eff: np.ndarray,
               phi: np.ndarray | None, mask: np.ndarray | None, e_h: float,
               lr: float, momentum: float, weight_decay: float,
               lambda_prox: float = 0.0, prox_ref: np.ndarray | None = None) -> np.ndarray:
    """One momentum-SGD step of each of the m models of a stack, each on its
    own batch, in place on `model`; returns the m losses.

    `x` is (m, B, d) and `hot` the (m, B, C) one-hot boolean stack of the
    labels. Each model runs the floating-point operations of forward ->
    logits -> ce_loss -> backward -> (+ lambda_prox * (theta - prox_ref)) ->
    sgd_step in the same order, so its results match those ops bit for bit,
    with one masked softmax and gradients written into `model.grad` (which
    the update then reuses as scratch). `w_eff` is the (m, d, C) learnable
    classifier stack (model.classifier) or one shared d x C frame matrix;
    `phi` and `mask` are (m, 1, C) stacks or None (all ones, all classes),
    and the caller checks that the labels lie in the mask. `prox_ref` is one
    (P,) row. A failed numeric guard raises FloatingPointError.
    """
    weights = model.weights
    last = len(weights) - 1
    acts = [x]                         # input to each layer
    for i, (w, b) in enumerate(zip(weights, model.biases)):
        z = np.matmul(acts[-1], w)
        z += b
        _check_finite(z, i)
        if i < last:
            acts.append(np.maximum(z, 0.0, out=z))
    raw = z
    norms = np.sqrt((raw * raw).sum(axis=2))
    _check_norms(norms)
    scale = math.sqrt(e_h)
    norms = norms[..., None]
    h = np.multiply(raw, scale)
    h /= norms

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
    g[hot] -= 1.0
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
    g *= scale / norms                 # (scale / norms) * (g - radial * u)
    for layer in range(last, -1, -1):
        np.matmul(acts[layer].swapaxes(1, 2), g, out=model.grad_weights[layer])
        g.sum(axis=1, keepdims=True, out=model.grad_biases[layer])
        if layer:
            g = np.matmul(g, weights[layer].swapaxes(1, 2))
            g *= acts[layer] > 0

    theta, grad, vel = model.theta, model.grad, model.vel
    if prox_ref is not None:
        grad += lambda_prox * (theta - prox_ref)
    vel *= momentum
    vel += grad                        # grad is spent: the rest reuse it
    if weight_decay:
        vel += np.multiply(theta, weight_decay, out=grad)
    theta -= np.multiply(vel, lr, out=grad)
    return loss


def _total_loss(params, x, labels, classifier, phi, mask, e_h,
                lambda_prox=0.0, ref_tensors=None) -> float:
    fb, _ = forward(params, x, e_h)
    loss = ce_loss(logits(fb, classifier, phi), labels, mask)
    if lambda_prox:
        cur = params.tensors()
        if not isinstance(classifier, EtfClassifier) and classifier is not None:
            cur = cur + [classifier]
        for t, r in zip(cur, ref_tensors):
            loss += 0.5 * lambda_prox * float(np.sum((t - r) ** 2))
    return loss


def finite_diff_check(params: BackboneParams, inputs, labels, classifier,
                      phi: PhiVector | None = None, class_mask=None,
                      e_h: float = 1.0, step: float = 1e-5, n_probes: int = 16,
                      seed=0, lambda_prox: float = 0.0) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Probes n_probes randomly selected scalar parameters (classifier entries
    included when it is learnable). Steps much below ~1e-7 are unreliable
    due to cancellation; the default 1e-5 balances truncation and roundoff.
    The denominator is floored at 1e-4 so probes whose true gradient is
    essentially zero (dead ReLU paths) do not divide rounding noise by ~0.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(inputs, dtype=np.float64)
    learnable = not isinstance(classifier, EtfClassifier)
    ref_tensors = None
    if lambda_prox:
        ref_tensors = [t.copy() for t in params.tensors()]
        if learnable:
            ref_tensors.append(classifier.copy())

    fb, cache = forward(params, x, e_h)
    del fb
    grads = backward(cache, labels, classifier, phi, class_mask)
    if lambda_prox:
        cur = params.tensors() + ([classifier] if learnable else [])
        gts = grads.tensors()
        for g, t, r in zip(gts, cur, ref_tensors):
            g += lambda_prox * (t - r)

    tensors = params.tensors() + ([classifier] if learnable else [])
    grad_tensors = grads.tensors()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(n_probes)):
        ti = int(rng.integers(len(tensors)))
        flat = tensors[ti].reshape(-1)
        gi = int(rng.integers(flat.size))
        old = flat[gi]
        flat[gi] = old + step
        loss_plus = _total_loss(params, x, labels, classifier, phi, class_mask,
                                e_h, lambda_prox, ref_tensors)
        flat[gi] = old - step
        loss_minus = _total_loss(params, x, labels, classifier, phi, class_mask,
                                 e_h, lambda_prox, ref_tensors)
        flat[gi] = old
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        analytic = float(grad_tensors[ti].reshape(-1)[gi])
        denom = max(abs(numeric), abs(analytic), 1e-4)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


def lpm_feature_fit(n_classes: int, feature_dim: int, e_h: float,
                    etf: EtfClassifier, labels, iterations: int, lr: float,
                    seed=0) -> np.ndarray:
    """Optimize free per-sample features under the fixed frame.

    Projected gradient descent on each sample's cross-entropy against the
    scaled frame (all-ones phi, full class mask), with features constrained
    to the sqrt(e_h) sphere. Returns the final n x d feature matrix.
    """
    if feature_dim < n_classes:
        raise ValueError(f"need feature_dim >= n_classes, got {feature_dim} < {n_classes}")
    y = np.asarray(labels, dtype=np.int64)
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError("labels outside [0, n_classes)")
    w = etf.classifier
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((len(y), feature_dim))
    h = math.sqrt(e_h) * h / np.linalg.norm(h, axis=1, keepdims=True)
    onehot = np.zeros((len(y), n_classes))
    onehot[np.arange(len(y)), y] = 1.0
    full_mask = np.ones(n_classes, dtype=bool)
    for _ in range(int(iterations)):
        z = h @ w
        probs, _ = _masked_softmax(z, full_mask)
        g = (probs - onehot) @ w.T   # per-sample loss, no 1/n
        h = h - lr * g
        h = math.sqrt(e_h) * h / np.linalg.norm(h, axis=1, keepdims=True)
    return h


def save_checkpoint(path, params: BackboneParams,
                    classifier: np.ndarray | None = None) -> None:
    """Lossless parameter checkpoint (architecture + tensors, row-major)."""
    payload = {
        "format_version": np.int64(CHECKPOINT_VERSION),
        "layer_sizes": np.asarray(params.layer_sizes, dtype=np.int64),
    }
    for i, w in enumerate(params.weights):
        payload[f"w{i}"] = w
    for i, b in enumerate(params.biases):
        payload[f"b{i}"] = b
    if classifier is not None:
        payload["classifier"] = classifier
    np.savez(path, **payload)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (BackboneParams, classifier|None)."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        sizes = tuple(int(s) for s in data["layer_sizes"])
        n = len(sizes) - 1
        weights = [data[f"w{i}"].copy() for i in range(n)]
        biases = [data[f"b{i}"].copy() for i in range(n)]
        classifier = data["classifier"].copy() if "classifier" in data.files else None
    return BackboneParams(weights=weights, biases=biases, layer_sizes=sizes), classifier
