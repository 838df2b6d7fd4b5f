"""Dense network substrate: MLPs with hand-written backprop and Adam.

All math is double-precision numpy. Gradients are computed analytically layer
by layer (no autodiff graph), which keeps every derivative inspectable and
lets the finite-difference checker validate the whole stack to tight
tolerances. The same class backs the actor, the critic, and the replay
scoring network.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractViolation, NumericFault
from .memory import mapped_zeros
from .seeding import as_generator

ACTIVATIONS = ("tanh", "relu", "sigmoid", "linear")

# Rows per block of a forward pass, and the most rows a net's workspace holds.
# 512 rows halve the workspace ERO's rescore touches against 1024 at about
# the same rows per second; 256 made that rescore about 1.5x slower.
BLOCK = 512

# Sigmoid heads must stay strictly inside (0, 1); unclipped float64 rounds
# sigmoid(z) to exactly 1.0 once z exceeds ~37.
_SIG_LO = 2.0**-53
_SIG_HI = 1.0 - 2.0**-53

# Adam's decay rates and epsilon, the same for every net.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8

# Every this many steps of an AdamState, first moments below the smallest
# normal float64 are set to 0. While an entry's gradient stays exactly 0,
# ``m *= 0.9`` rounds a moment of 1-5 subnormal units back to itself, so it
# never decays, and every later step does its arithmetic on subnormals.
_ADAM_FLUSH_EVERY = 64
_TINY = np.finfo(np.float64).tiny


def _sigmoid(z: np.ndarray, dst: np.ndarray | None = None) -> np.ndarray:
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so this is
    # 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)), each where it cannot
    # overflow, without splitting z into its two signs
    expz = np.exp(-np.abs(z))
    out = np.divide(np.where(z >= 0.0, 1.0, expz), expz + 1.0, out=dst)
    return np.clip(out, _SIG_LO, _SIG_HI, out=out)


def _tanh(z, dst=None):
    return np.tanh(z, out=dst)


def _relu(z, dst=None):
    return np.maximum(z, 0.0, out=dst)


def _linear(z, dst=None):
    return z


def _tanh_grad(dh, out, dst=None, mask=None):
    return np.multiply(dh, 1.0 - out * out, out=dst)


def _relu_grad(dh, out, dst=None, mask=None):
    return np.multiply(dh, np.greater(out, 0.0, out=mask), out=dst)


def _sigmoid_grad(dh, out, dst=None, mask=None):
    return np.multiply(dh, out * (1.0 - out), out=dst)


def _linear_grad(dh, out, dst=None, mask=None):
    return dh


# Per activation tag: (activation, chain rule through it). An activation maps
# ``(z, dst)`` to its output, written into ``dst`` when given (``dst`` may be
# ``z``); a linear layer returns ``z`` itself and ignores ``dst``. A chain
# rule maps ``(dh, out, dst, mask)``, with ``dh`` = d(loss)/d(out), to
# d(loss)/d(z), from the layer's output alone: relu's ``out > 0`` is
# ``z > 0`` for every float z, -0.0 and NaN included. The relu mask is
# written into the bool array ``mask`` when given and multiplies as
# booleans, and a linear layer passes ``dh`` through: the same bits as
# multiplying by a float 1.0/0.0 array, without building one. The result
# goes into ``dst`` when given (``dst`` may be ``dh``), except that a linear
# layer always returns ``dh``.
_KERNELS = {
    "tanh": (_tanh, _tanh_grad),
    "relu": (_relu, _relu_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "linear": (_linear, _linear_grad),
}


def row_blocks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` ranges covering ``range(n)``, ``BLOCK`` rows each but the last.

    A one-row remainder joins the block before it: numpy runs a one-row
    product as a matrix-vector product, whose bits differ from the same row
    inside a larger matrix product. Every block starts at a multiple of
    ``BLOCK``, so a block's rows meet the BLAS kernels in the same grouping
    as they do in one product over all ``n`` rows.
    """
    if n <= BLOCK + 1:
        return [(0, n)] if n else []
    blocks = [(start, min(start + BLOCK, n)) for start in range(0, n, BLOCK)]
    if blocks[-1][1] - blocks[-1][0] == 1:
        blocks[-2:] = [(blocks[-2][0], n)]
    return blocks


def count_params(layer_sizes) -> int:
    """Weights and biases of an Mlp with these layer sizes."""
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
    """Parameter gradients for one Mlp.

    ``grads`` is one float64 vector laid out like ``Mlp.params``;
    ``weight_grads`` and ``bias_grads`` are per-layer views into it.
    """

    def __init__(self, grads: np.ndarray, layer_sizes) -> None:
        self.grads = grads
        self.weight_grads, self.bias_grads = _layer_views(grads, layer_sizes)

    @classmethod
    def zeros_like(cls, net: "Mlp") -> "GradTape":
        return cls(np.zeros_like(net.params), net.layer_sizes)


class Mlp:
    """Fully connected network with per-layer activation tags.

    ``layer_sizes`` lists the input width followed by every layer's output
    width; ``activations`` holds one tag per non-input layer, drawn from
    ``ACTIVATIONS``. All parameters live in one float64 vector ``params``
    laid out as ``[W0 (row-major), b0, W1, b1, ...]``; ``weights`` and
    ``biases`` are per-layer views into it. Write a layer in place
    (``net.weights[i][...] = x``): reassigning a list element detaches that
    layer from ``params``, so ``adam_step`` and target blending would no
    longer see it.

    Each net owns a workspace: one float64 array per layer, as wide as the
    layer's output and ``BLOCK + 1`` rows long (the largest block
    ``row_blocks`` makes), and a bool array of the same
    shape for the relu masks, each mapped on first use on its own memory map
    (``memory.mapped_zeros``). Only the pages a call writes become
    resident, and a dropped net gives its pages back to the operating
    system. ``forward`` writes its hidden layers there and
    ``backward``/``input_gradient`` their per-layer gradients and masks, so
    those intermediates are reused from call to call; a request for more
    than ``BLOCK + 1`` rows gets fresh arrays instead. ``forward`` never
    splits its input: ERO's eager rescore does its own ``row_blocks``.
    What the methods return is never workspace memory: ``forward`` returns
    a fresh array on every call. The workspace makes a net unsafe to run
    from two threads at once.

    Each layer's activation and its chain rule are looked up once, at
    construction (``_KERNELS``), not dispatched on the tag at every call.
    """

    def __init__(self, layer_sizes, activations, params: np.ndarray) -> None:
        self.layer_sizes = list(layer_sizes)
        self.activations = tuple(activations)  # bound into the layers below: read-only
        expected = count_params(self.layer_sizes)
        if params.shape != (expected,) or params.dtype != np.float64:
            raise ContractViolation(
                f"layer sizes {self.layer_sizes} need a float64 vector of {expected} "
                f"parameters, got {params.dtype} of shape {params.shape}"
            )
        self.params = params
        self.weights, self.biases = _layer_views(params, self.layer_sizes)
        kernels = [_KERNELS[act] for act in self.activations]
        self._layers = list(zip(self.weights, self.biases, (k[0] for k in kernels)))
        self._grads = [k[1] for k in kernels]
        # d(loss)/d(layer input) is dz @ W.T; through a one-column layer that is
        # an outer product, which a broadcast multiply gives with the same bits
        self._input_grads = [(np.multiply if w.shape[1] == 1 else np.matmul, w.T) for w in self.weights]
        self._workspace: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []
        # (float, bool) workspace views per recently asked row count
        self._views: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}

    @property
    def param_count(self) -> int:
        return self.params.size

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ContractViolation(
                f"expected input of shape (batch, {self.input_dim}), got {x.shape}"
            )
        return x

    def _scratch(self, rows: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (rows, layer width) float and bool arrays: workspace views,
        fresh above ``BLOCK + 1`` rows."""
        views = self._views.get(rows)
        if views is not None:
            return views
        widths = self.layer_sizes[1:]
        if rows > BLOCK + 1:
            return [np.empty((rows, w)) for w in widths], [np.empty((rows, w), bool) for w in widths]
        if not self._workspace:  # a page is resident only once a call writes it
            self._workspace = [mapped_zeros((BLOCK + 1, w)) for w in widths]
            self._masks = [mapped_zeros((BLOCK + 1, w), dtype=bool) for w in widths]
        if len(self._views) >= 4:
            self._views.clear()  # a few row counts recur (1 to act, the batch size to train)
        views = self._views[rows] = ([a[:rows] for a in self._workspace], [a[:rows] for a in self._masks])
        return views

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a (batch, input_dim) matrix; returns a fresh (batch, output_dim) array.

        Each layer computes ``matmul(h, W, out=z); z += b`` and applies its
        activation in place, the same bits as ``act(h @ W + b)``. The input
        runs as one block, without slicing.
        """
        x = self._check_input(x)
        y = np.empty((len(x), self.output_dim))
        self._forward_block(x, self._scratch(len(x))[0][:-1] + [y])
        return y

    def _forward_block(self, h: np.ndarray, outs: list[np.ndarray]) -> None:
        """Run the layers on ``h``, writing each layer's output into ``outs``.

        The only layer loop: ``forward`` passes workspace views and its result
        array, ``forward_cached`` the cache's own arrays.
        """
        for (w, b, act), z in zip(self._layers, outs):
            np.matmul(h, w, out=z)
            z += b
            h = act(z, z)

    def forward_cached(self, x: np.ndarray, cache: list | None = None) -> tuple[np.ndarray, list]:
        """Forward pass that also returns the intermediates backward() needs.

        The cache holds one ``(input, output)`` pair per layer, each layer's
        input being the previous layer's output; the returned output is the
        last layer's. The chain rules read only the outputs, so no
        pre-activation is kept. Pass back a cache an earlier call returned to
        have its arrays overwritten instead of fresh ones built (when its
        batch size differs, fresh ones are built).
        """
        h = self._check_input(x)
        if cache is None or len(cache[0][1]) != len(h):
            outs = [np.empty((len(h), width)) for width in self.layer_sizes[1:]]
        else:
            outs = [out for _, out in cache]
        self._forward_block(h, outs)
        return outs[-1], list(zip([h] + outs[:-1], outs))

    def backward(self, cache: list, output_grad: np.ndarray, tape: GradTape | None = None) -> GradTape:
        """Backpropagate d(loss)/d(output) through the cached forward pass.

        Returns gradients for every weight and bias, summed over the batch.
        They are written into ``tape`` when one is given (its old contents
        are overwritten), into a new tape otherwise. d(loss)/d(input) is not
        computed here; ``input_gradient`` gives it.
        """
        if tape is None:
            tape = GradTape(np.empty_like(self.params), self.layer_sizes)
        elif tape.grads.shape != self.params.shape:
            raise ContractViolation(
                f"net has {self.params.size} parameters but the tape has {tape.grads.size}"
            )
        self._chain(cache, output_grad, tape)
        return tape

    def input_gradient(self, cache: list, output_grad: np.ndarray) -> np.ndarray:
        """d(loss)/d(input) for the cached forward pass, without parameter gradients."""
        return self._chain(cache, output_grad, None)

    def _chain(self, cache: list, output_grad: np.ndarray, tape: GradTape | None) -> np.ndarray | None:
        """Chain ``output_grad`` down through the layers.

        With a ``tape``, fill it with the parameter gradients and stop at
        layer 0's weights; without one, return d(loss)/d(input).
        """
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != cache[-1][1].shape:
            raise ContractViolation(
                f"output_grad shape {output_grad.shape} does not match "
                f"forward output {cache[-1][1].shape}"
            )
        scratch, masks = self._scratch(len(output_grad))
        dh = output_grad
        for layer in range(len(self.weights) - 1, -1, -1):
            h_in, out = cache[layer]
            dz = self._grads[layer](dh, out, scratch[layer], masks[layer])
            if tape is not None:
                np.matmul(h_in.T, dz, out=tape.weight_grads[layer])
                np.add.reduce(dz, axis=0, out=tape.bias_grads[layer])
                if layer == 0:
                    return None
            product, w_t = self._input_grads[layer]
            dh = product(dz, w_t, out=scratch[layer - 1] if layer else None)
        return dh


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
    net = Mlp(layer_sizes, activations, np.empty(count_params(layer_sizes)))
    last = len(layer_sizes) - 2
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        bound = 1.0 / np.sqrt(w.shape[0])
        if output_scale is not None and layer == last:
            bound = output_scale
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return net


class AdamState:
    """Adam moments and learning rate for one Mlp's parameters.

    ``m`` and ``v`` are float64 vectors laid out like ``Mlp.params``.
    ``scratch`` holds two more such vectors that ``adam_step`` works in.
    """

    def __init__(self, layer_sizes, learning_rate: float) -> None:
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = np.zeros(count_params(layer_sizes))
        self.v = np.zeros_like(self.m)
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_net(cls, net: Mlp, learning_rate: float) -> "AdamState":
        return cls(net.layer_sizes, learning_rate)


def adam_step(net: Mlp, tape: GradTape, state: AdamState) -> None:
    """Apply one bias-corrected Adam update to ``net`` in place.

    A non-finite gradient raises ``NumericFault`` naming its first layer and
    leaves the net and the moments untouched. Every ``_ADAM_FLUSH_EVERY``
    steps, first moments below ``_TINY`` are set to 0 before they are used.
    """
    p, g, m, v = net.params, tape.grads, state.m, state.v
    if not p.size == g.size == m.size == v.size:
        raise ContractViolation(
            f"net has {p.size} parameters but the tape has {g.size} gradients "
            f"and the Adam state {m.size}/{v.size} moments"
        )
    # a finite sum of squares (one BLAS dot) means every entry is finite; only
    # a non-finite entry, or squares that overflow, need the full scan
    if not math.isfinite(np.dot(g, g)) and not np.isfinite(g).all():
        first_bad = np.flatnonzero(~np.isfinite(g))[0]
        layer_ends = np.cumsum([w.size + b.size for w, b in zip(net.weights, net.biases)])
        layer = int(np.searchsorted(layer_ends, first_bad, side="right"))
        raise NumericFault(f"non-finite gradient in layer {layer}")
    state.step_count += 1
    t = state.step_count
    b1, b2, eps, lr = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON, state.learning_rate
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time in
    # the same order, so the bits match the expression
    step, denom = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=step)
    if t % _ADAM_FLUSH_EVERY == 0:
        m[np.abs(m, out=step) < _TINY] = 0.0
    v *= b2
    np.multiply(1.0 - b2, g, out=step)
    v += np.multiply(step, g, out=step)
    np.divide(m, bc1, out=step)
    np.multiply(lr, step, out=step)
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    p -= np.divide(step, denom, out=step)


def grad_check(net: Mlp, loss_fn, x: np.ndarray, step: float = 1e-5) -> float:
    """Compare analytic parameter gradients against central finite differences.

    ``loss_fn`` maps the network output to ``(scalar_loss, dloss_doutput,
    ...)`` and must be deterministic. Returns the maximum over parameters of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``; the caller
    decides what threshold to assert.
    """
    y, cache = net.forward_cached(x)
    dy = loss_fn(y)[1]
    tape = net.backward(cache, dy)

    def loss_at_params() -> float:
        return float(loss_fn(net.forward(x))[0])

    worst = 0.0
    params = net.params  # every weight and bias is a view into it, laid out like ``tape.grads``
    for i, analytic in enumerate(tape.grads):
        orig = params[i]
        params[i] = orig + step
        plus = loss_at_params()
        params[i] = orig - step
        minus = loss_at_params()
        params[i] = orig
        numeric = (plus - minus) / (2.0 * step)
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    return worst
