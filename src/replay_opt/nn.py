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

# Rows per block of a forward pass, and the most rows a net's workspace holds.
BLOCK = 1024

# Sigmoid heads must stay strictly inside (0, 1); unclipped float64 rounds
# sigmoid(z) to exactly 1.0 once z exceeds ~37.
_SIG_LO = 2.0**-53
_SIG_HI = 1.0 - 2.0**-53


def _sigmoid(z: np.ndarray, dst: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return np.clip(out, _SIG_LO, _SIG_HI, out=dst)


def _activate(name: str, z: np.ndarray, dst: np.ndarray | None = None) -> np.ndarray:
    """Apply the activation to ``z``, into ``dst`` when given (``dst`` may be ``z``).

    A linear layer returns ``z`` itself and ignores ``dst``.
    """
    if name == "tanh":
        return np.tanh(z, out=dst)
    if name == "relu":
        return np.maximum(z, 0.0, out=dst)
    if name == "sigmoid":
        return _sigmoid(z, dst)
    return z


def _pre_activation_grad(
    name: str, dh: np.ndarray, z: np.ndarray, out: np.ndarray, dst: np.ndarray | None = None
) -> np.ndarray:
    """Chain ``dh`` = d(loss)/d(out) through the activation to d(loss)/d(z).

    Reuses the forward output where cheaper. The relu mask multiplies as
    booleans and a linear layer passes ``dh`` through: the same bits as
    multiplying by a float 1.0/0.0 array, without building one. The result
    goes into ``dst`` when given (``dst`` may be ``dh``), except that a
    linear layer always returns ``dh``.
    """
    if name == "tanh":
        return np.multiply(dh, 1.0 - out * out, out=dst)
    if name == "relu":
        return np.multiply(dh, z > 0.0, out=dst)
    if name == "sigmoid":
        return np.multiply(dh, out * (1.0 - out), out=dst)
    return dh


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

    Each net owns a workspace: one float64 array per layer, as wide as the
    layer's output and grown on demand to at most ``BLOCK`` rows. ``forward``
    writes its hidden layers there (running larger inputs in ``row_blocks``)
    and ``backward``/``input_gradient`` their per-layer gradients, so those
    intermediates are reused from call to call; a request for more than
    ``BLOCK`` rows gets fresh arrays instead. What the methods return is
    never workspace memory: ``forward`` returns a fresh array on every call.
    The workspace makes a net unsafe to run from two threads at once.
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
        self._workspace: list[np.ndarray] = []
        self._views: tuple[int, list[np.ndarray]] = (0, [])  # last row count asked for, its views

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

    def _scratch(self, rows: int) -> list[np.ndarray]:
        """Per-layer (rows, layer width) arrays: workspace views, fresh above ``BLOCK`` rows."""
        widths = self.layer_sizes[1:]
        if rows > BLOCK:
            return [np.empty((rows, width)) for width in widths]
        if self._views[0] != rows:
            if not self._workspace or len(self._workspace[0]) < rows:
                self._workspace = [np.empty((rows, width)) for width in widths]
            self._views = (rows, [buf[:rows] for buf in self._workspace])
        return self._views[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a (batch, input_dim) matrix; returns a fresh (batch, output_dim) array.

        Each layer computes ``matmul(h, W, out=z); z += b`` and applies its
        activation in place, the same bits as ``act(h @ W + b)``.
        """
        x = self._check_input(x)
        y = np.empty((len(x), self.output_dim))
        last = len(self.weights) - 1
        for start, stop in row_blocks(len(x)):
            h = x[start:stop]
            scratch = self._scratch(stop - start)
            for layer, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
                z = y[start:stop] if layer == last else scratch[layer]
                np.matmul(h, w, out=z)
                z += b
                h = _activate(act, z, dst=z)
        return y

    def forward_cached(self, x: np.ndarray, cache: list | None = None) -> tuple[np.ndarray, list]:
        """Forward pass that also returns the intermediates backward() needs.

        The cache holds one ``(input, pre-activation, output)`` triple per
        layer; the returned output is the last layer's. Pass back a cache an
        earlier call returned to have its arrays overwritten instead of fresh
        ones built (when its batch size differs, fresh ones are built).
        """
        h = self._check_input(x)
        if cache is None or cache[0][1].shape[0] != len(h):
            cache = []
            for width, act in zip(self.layer_sizes[1:], self.activations):
                z = np.empty((len(h), width))
                cache.append((None, z, z if act == "linear" else np.empty_like(z)))
        for layer, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            _, z, out = cache[layer]
            np.matmul(h, w, out=z)
            z += b
            _activate(act, z, dst=out)
            cache[layer] = (h, z, out)
            h = out
        return h, cache

    def backward(self, cache: list, output_grad: np.ndarray, tape: GradTape | None = None) -> GradTape:
        """Backpropagate d(loss)/d(output) through the cached forward pass.

        Returns gradients for every weight and bias, summed over the batch,
        plus d(loss)/d(input) in ``input_grad``. They are written into
        ``tape`` when one is given (its old contents are overwritten), into a
        new tape otherwise.
        """
        if tape is None:
            tape = GradTape(np.empty_like(self.params), self.layer_sizes)
        elif tape.grads.shape != self.params.shape:
            raise ContractViolation(
                f"net has {self.params.size} parameters but the tape has {tape.grads.size}"
            )
        tape.input_grad = self._chain(cache, output_grad, tape)
        return tape

    def input_gradient(self, cache: list, output_grad: np.ndarray) -> np.ndarray:
        """d(loss)/d(input) alone: ``backward(cache, output_grad).input_grad`` without the tape.

        The weight-gradient products never feed the chain, so skipping them
        leaves the bits of the input gradient unchanged.
        """
        return self._chain(cache, output_grad, None)

    def _chain(self, cache: list, output_grad: np.ndarray, tape: GradTape | None) -> np.ndarray:
        """Chain ``output_grad`` down to the input, filling ``tape`` on the way if given."""
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != cache[-1][2].shape:
            raise ContractViolation(
                f"output_grad shape {output_grad.shape} does not match "
                f"forward output {cache[-1][2].shape}"
            )
        scratch = self._scratch(len(output_grad))
        dh = output_grad
        for layer in range(len(self.weights) - 1, -1, -1):
            h_in, z, out = cache[layer]
            dz = _pre_activation_grad(self.activations[layer], dh, z, out, dst=scratch[layer])
            if tape is not None:
                np.matmul(h_in.T, dz, out=tape.weight_grads[layer])
                dz.sum(axis=0, out=tape.bias_grads[layer])
            dh = np.matmul(dz, self.weights[layer].T, out=scratch[layer - 1] if layer else None)
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
    ``scratch`` holds two more such vectors that ``adam_step`` works in.
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
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))
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
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time in
    # the same order, so the bits match the expression
    step, denom = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=step)
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
