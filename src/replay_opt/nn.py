"""Dense network substrate: MLPs with hand-written backprop and Adam.

All math is double-precision numpy. Gradients are computed analytically layer
by layer (no autodiff graph), which keeps every derivative inspectable and
lets the finite-difference checker validate the whole stack to tight
tolerances. The same class backs the actor, the critic, and the replay
scoring network.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation, NumericFault
from .seeding import as_generator

ACTIVATIONS = ("tanh", "relu", "sigmoid", "linear")

# Sigmoid heads must stay strictly inside (0, 1); unclipped float64 rounds
# sigmoid(z) to exactly 1.0 once z exceeds ~37.
_SIG_LO = 2.0**-53
_SIG_HI = 1.0 - 2.0**-53


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return np.clip(out, _SIG_LO, _SIG_HI)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return _sigmoid(z)
    return z


def _pre_activation_grad(name: str, dh: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Chain ``dh`` = d(loss)/d(out) through the activation to d(loss)/d(z).

    Reuses the forward output where cheaper. The relu mask multiplies as
    booleans and a linear layer passes ``dh`` through: the same bits as
    multiplying by a float 1.0/0.0 array, without building one.
    """
    if name == "tanh":
        return dh * (1.0 - out * out)
    if name == "relu":
        return dh * (z > 0.0)
    if name == "sigmoid":
        return dh * (out * (1.0 - out))
    return dh


def _param_count(layer_sizes) -> int:
    return sum((i + 1) * o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layer_views(flat: np.ndarray, layer_sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a flat parameter-shaped vector into per-layer weight and bias views.

    The layout is ``[W0 (row-major), b0, W1, b1, ...]``, the order in which
    ``mlp_init`` draws the parameters.
    """
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        end = offset + fan_in * fan_out
        weights.append(flat[offset:end].reshape(fan_in, fan_out))
        biases.append(flat[end : end + fan_out])
        offset = end + fan_out
    return weights, biases


class GradTape:
    """Gradient accumulator for one Mlp, plus the input gradient.

    ``grads`` is one float64 vector laid out like ``Mlp.params``;
    ``weight_grads`` and ``bias_grads`` are per-layer views into it.
    """

    def __init__(self, grads: np.ndarray, layer_sizes) -> None:
        self.grads = grads
        self.weight_grads, self.bias_grads = _layer_views(grads, layer_sizes)
        self.input_grad: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, net: "Mlp") -> "GradTape":
        return cls(np.zeros_like(net.params), net.layer_sizes)

    def add_(self, other: "GradTape") -> None:
        self.grads += other.grads


class Mlp:
    """Fully connected network with per-layer activation tags.

    ``layer_sizes`` lists the input width followed by every layer's output
    width; ``activations`` holds one tag per non-input layer, drawn from
    ``ACTIVATIONS``. All parameters live in one float64 vector ``params``
    laid out as ``[W0 (row-major), b0, W1, b1, ...]``; ``weights`` and
    ``biases`` are per-layer views into it. Write a layer in place
    (``net.weights[i][...] = x``): reassigning a list element detaches that
    layer from ``params``, so ``adam_step``, ``copy`` and target blending
    would no longer see it.
    """

    def __init__(self, layer_sizes, activations, params: np.ndarray) -> None:
        self.layer_sizes = list(layer_sizes)
        self.activations = list(activations)
        expected = _param_count(self.layer_sizes)
        if params.shape != (expected,) or params.dtype != np.float64:
            raise ContractViolation(
                f"layer sizes {self.layer_sizes} need a float64 vector of {expected} "
                f"parameters, got {params.dtype} of shape {params.shape}"
            )
        self.params = params
        self.weights, self.biases = _layer_views(params, self.layer_sizes)

    @property
    def param_count(self) -> int:
        return self.params.size

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.activations, self.params.copy())

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ContractViolation(
                f"expected input of shape (batch, {self.input_dim}), got {x.shape}"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a (batch, input_dim) matrix."""
        h = self._check_input(x)
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = _activate(act, h @ w + b)
        return h

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Forward pass that also returns the intermediates backward() needs."""
        h = self._check_input(x)
        cache = []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = h @ w + b
            out = _activate(act, z)
            cache.append((h, z, out))
            h = out
        return h, cache

    def backward(self, cache: list, output_grad: np.ndarray) -> GradTape:
        """Backpropagate d(loss)/d(output) through the cached forward pass.

        Returns gradients for every weight and bias, summed over the batch,
        plus d(loss)/d(input) in ``input_grad``.
        """
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != cache[-1][2].shape:
            raise ContractViolation(
                f"output_grad shape {output_grad.shape} does not match "
                f"forward output {cache[-1][2].shape}"
            )
        tape = GradTape(np.empty_like(self.params), self.layer_sizes)
        dh = output_grad
        for layer in range(len(self.weights) - 1, -1, -1):
            h_in, z, out = cache[layer]
            dz = _pre_activation_grad(self.activations[layer], dh, z, out)
            np.matmul(h_in.T, dz, out=tape.weight_grads[layer])
            dz.sum(axis=0, out=tape.bias_grads[layer])
            dh = dz @ self.weights[layer].T
        tape.input_grad = dh
        return tape


def mlp_init(layer_sizes, activations, seed, output_scale: float | None = None) -> Mlp:
    """Build an Mlp with fan-in uniform init, deterministic in ``seed``.

    Hidden layers draw from U(-1/sqrt(fan_in), 1/sqrt(fan_in)). When
    ``output_scale`` is given the final layer instead draws from
    U(-output_scale, output_scale), used to start actor actions near zero and
    replay scores near one half.
    """
    layer_sizes = list(layer_sizes)
    activations = list(activations)
    if len(layer_sizes) < 2:
        raise ConfigError("need at least an input and an output layer size")
    if any((not isinstance(s, (int, np.integer))) or s <= 0 for s in layer_sizes):
        raise ConfigError(f"layer sizes must be positive integers, got {layer_sizes}")
    if len(activations) != len(layer_sizes) - 1:
        raise ConfigError(
            f"need one activation per non-input layer: "
            f"{len(layer_sizes) - 1} layers, {len(activations)} activations"
        )
    for act in activations:
        if act not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")

    rng = as_generator(seed)
    net = Mlp(layer_sizes, activations, np.empty(_param_count(layer_sizes)))
    last = len(layer_sizes) - 2
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        bound = 1.0 / np.sqrt(w.shape[0])
        if output_scale is not None and layer == last:
            bound = output_scale
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return net


class AdamState:
    """Adam moments and hyperparameters for one Mlp's parameters.

    ``m`` and ``v`` are float64 vectors laid out like ``Mlp.params``;
    ``m_w``/``m_b`` and ``v_w``/``v_b`` are per-layer views into them.
    """

    def __init__(
        self,
        layer_sizes,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.m = np.zeros(_param_count(layer_sizes))
        self.v = np.zeros_like(self.m)
        self.m_w, self.m_b = _layer_views(self.m, layer_sizes)
        self.v_w, self.v_b = _layer_views(self.v, layer_sizes)

    @classmethod
    def for_net(cls, net: Mlp, learning_rate: float, **kwargs) -> "AdamState":
        return cls(net.layer_sizes, learning_rate, **kwargs)


def adam_step(net: Mlp, tape: GradTape, state: AdamState) -> None:
    """Apply one bias-corrected Adam update to ``net`` in place."""
    p, g, m, v = net.params, tape.grads, state.m, state.v
    if not p.size == g.size == m.size == v.size:
        raise ContractViolation(
            f"net has {p.size} parameters but the tape has {g.size} gradients "
            f"and the Adam state {m.size}/{v.size} moments"
        )
    if not np.isfinite(g).all():
        first_bad = np.flatnonzero(~np.isfinite(g))[0]
        layer_ends = np.cumsum([w.size + b.size for w, b in zip(net.weights, net.biases)])
        layer = int(np.searchsorted(layer_ends, first_bad, side="right"))
        raise NumericFault(f"non-finite gradient in layer {layer}")
    state.step_count += 1
    t = state.step_count
    b1, b2, eps, lr = state.beta1, state.beta2, state.epsilon, state.learning_rate
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def grad_check(net: Mlp, loss_fn, x: np.ndarray, step: float = 1e-5) -> float:
    """Compare analytic parameter gradients against central finite differences.

    ``loss_fn`` maps the network output to ``(scalar_loss, dloss_doutput)``
    and must be deterministic. Returns the maximum over parameters of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``; the caller
    decides what threshold to assert.
    """
    y, cache = net.forward_cached(x)
    _, dy = loss_fn(y)
    tape = net.backward(cache, dy)

    def loss_at_params() -> float:
        return float(loss_fn(net.forward(x))[0])

    worst = 0.0
    arrays = list(zip(net.weights, tape.weight_grads)) + list(zip(net.biases, tape.bias_grads))
    for param, grad in arrays:
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + step
            plus = loss_at_params()
            param[idx] = orig - step
            minus = loss_at_params()
            param[idx] = orig
            numeric = (plus - minus) / (2.0 * step)
            analytic = grad[idx]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
