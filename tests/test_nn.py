"""Tests for the MLP substrate: shapes, gradients, Adam, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from replay_opt.errors import ConfigError, ContractViolation, NumericFault
from replay_opt.nn import (
    BLOCK,
    AdamState,
    GradTape,
    Mlp,
    _activate,
    _pre_activation_grad,
    adam_step,
    grad_check,
    mlp_init,
    row_blocks,
)


def finite_diff_tape(net: Mlp, loss_of_output, x: np.ndarray, h: float = 1e-5) -> GradTape:
    """Independent oracle: central differences over every parameter."""
    tape = GradTape.zeros_like(net)
    arrays = list(zip(net.weights, tape.weight_grads)) + list(zip(net.biases, tape.bias_grads))
    for param, grad in arrays:
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            plus = loss_of_output(net.forward(x))
            param[idx] = orig - h
            minus = loss_of_output(net.forward(x))
            param[idx] = orig
            grad[idx] = (plus - minus) / (2.0 * h)
    return tape


def reference_adam_step(
    weights, biases, weight_grads, bias_grads, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8
):
    """Per-layer Adam loop kept as the reference for the flat update.

    ``moments`` is ``(m_w, v_w, m_b, v_b)``, lists of per-layer arrays
    updated in place along with ``weights`` and ``biases``.
    """
    m_w, v_w, m_b, v_b = moments
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    params = list(zip(weights, weight_grads, m_w, v_w)) + list(zip(biases, bias_grads, m_b, v_b))
    for p, g, m, v in params:
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def reference_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Whole-input forward pass with fresh arrays per layer, the reference for the blocked one."""
    h = x
    for w, b, act in zip(net.weights, net.biases, net.activations):
        h = _activate(act, h @ w + b)
    return h


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)))


def zero_net(layer_sizes, activations) -> Mlp:
    net = mlp_init(layer_sizes, activations, seed=0)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


class TestInit:
    def test_param_count_matches_shape_arithmetic(self):
        net = mlp_init([3, 64, 64, 1], ["relu", "relu", "sigmoid"], seed=0)
        # (3+1)*64 + (64+1)*64 + (64+1)*1
        assert net.param_count == 256 + 4160 + 65 == 4481
        assert sum(w.size for w in net.weights) + sum(b.size for b in net.biases) == 4481

    def test_same_seed_bit_identical(self):
        a = mlp_init([4, 8, 2], ["tanh", "linear"], seed=7)
        b = mlp_init([4, 8, 2], ["tanh", "linear"], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_different_seeds_differ(self):
        a = mlp_init([4, 8, 2], ["tanh", "linear"], seed=0)
        b = mlp_init([4, 8, 2], ["tanh", "linear"], seed=1)
        assert any(not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))

    def test_finite_parameters(self):
        net = mlp_init([5, 32, 32, 3], ["relu", "relu", "tanh"], seed=3)
        assert all(np.all(np.isfinite(w)) for w in net.weights)
        assert all(np.all(np.isfinite(b)) for b in net.biases)

    def test_output_scale_bounds_final_layer(self):
        net = mlp_init([3, 64, 64, 1], ["relu", "relu", "sigmoid"], seed=0, output_scale=3e-3)
        assert np.max(np.abs(net.weights[-1])) <= 3e-3
        assert np.max(np.abs(net.biases[-1])) <= 3e-3
        assert np.max(np.abs(net.weights[0])) > 3e-3

    @pytest.mark.parametrize(
        "sizes,acts",
        [
            ([3], ["relu"]),
            ([3, 0], ["relu"]),
            ([3, 4], ["relu", "relu"]),
            ([3, 4], ["softplus"]),
            ([], []),
        ],
    )
    def test_bad_specs_rejected(self, sizes, acts):
        with pytest.raises(ConfigError):
            mlp_init(sizes, acts, seed=0)


class TestForward:
    def test_zero_net_linear_output_is_zero(self):
        net = zero_net([3, 8, 2], ["relu", "linear"])
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(net.forward(x), np.zeros((5, 2)))

    def test_zero_net_sigmoid_output_is_half(self):
        net = zero_net([3, 8, 1], ["tanh", "sigmoid"])
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.allclose(net.forward(x), 0.5, atol=0, rtol=0)

    def test_one_one_affine(self):
        net = zero_net([1, 1], ["linear"])
        net.weights[0][0, 0] = 2.5
        net.biases[0][0] = -0.75
        x = np.array([[3.0], [-1.0]])
        assert np.array_equal(net.forward(x), 2.5 * x - 0.75)

    def test_shape_contract(self):
        net = mlp_init([3, 4, 2], ["relu", "linear"], seed=0)
        out = net.forward(np.zeros((7, 3)))
        assert out.shape == (7, 2)
        with pytest.raises(ContractViolation):
            net.forward(np.zeros((7, 4)))
        with pytest.raises(ContractViolation):
            net.forward(np.zeros(3))

    def test_sigmoid_head_strictly_inside_unit_interval(self):
        net = mlp_init([2, 8, 1], ["relu", "sigmoid"], seed=1)
        # saturate hard in both directions
        extreme = np.array([[1e6, 1e6], [-1e6, -1e6], [1e300, -1e300], [0.0, 0.0]])
        out = net.forward(extreme)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_fresh_net_finite_everywhere(self):
        rng = np.random.default_rng(5)
        net = mlp_init([4, 16, 16, 2], ["relu", "tanh", "linear"], seed=9)
        for scale in (1.0, 1e3, 1e6):
            assert np.all(np.isfinite(net.forward(rng.normal(size=(10, 4)) * scale)))


class TestBackward:
    def test_zero_output_grad_gives_zero_tape(self):
        net = mlp_init([3, 8, 2], ["tanh", "linear"], seed=2)
        x = np.random.default_rng(1).normal(size=(4, 3))
        y, cache = net.forward_cached(x)
        tape = net.backward(cache, np.zeros_like(y))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in tape.weight_grads)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in tape.bias_grads)
        assert np.array_equal(tape.input_grad, np.zeros_like(x))

    @pytest.mark.parametrize("acts", [["tanh", "linear"], ["relu", "sigmoid"], ["sigmoid", "tanh"]])
    def test_matches_finite_differences(self, acts):
        rng = np.random.default_rng(11)
        net = mlp_init([3, 8, 2], acts, seed=13)
        x = rng.normal(size=(4, 3))
        y, cache = net.forward_cached(x)
        tape = net.backward(cache, np.ones_like(y))
        oracle = finite_diff_tape(net, lambda out: float(out.sum()), x)
        for a, n in zip(tape.weight_grads + tape.bias_grads, oracle.weight_grads + oracle.bias_grads):
            assert max_rel_err(a, n) < 1e-4

    def test_relu_gradient_away_from_kinks(self):
        rng = np.random.default_rng(23)
        net = mlp_init([3, 8, 2], ["relu", "relu"], seed=29)
        # nudge biases so pre-activations stay at least 1e-3 from zero
        x = rng.normal(size=(4, 3))
        for _ in range(20):
            _, cache = net.forward_cached(x)
            pre = np.concatenate([np.abs(c[1]).ravel() for c in cache])
            if pre.min() >= 1e-3:
                break
            x = rng.normal(size=(4, 3))
        y, cache = net.forward_cached(x)
        tape = net.backward(cache, np.ones_like(y))
        oracle = finite_diff_tape(net, lambda out: float(out.sum()), x)
        for a, n in zip(tape.weight_grads + tape.bias_grads, oracle.weight_grads + oracle.bias_grads):
            assert max_rel_err(a, n) < 1e-4

    def test_batch_additivity(self):
        rng = np.random.default_rng(3)
        net = mlp_init([3, 6, 2], ["tanh", "linear"], seed=4)
        x = rng.normal(size=(2, 3))
        dy = rng.normal(size=(2, 2))
        _, cache = net.forward_cached(x)
        whole = net.backward(cache, dy)
        total = GradTape.zeros_like(net)
        for i in range(2):
            _, c = net.forward_cached(x[i : i + 1])
            total.add_(net.backward(c, dy[i : i + 1]))
        for a, b in zip(whole.weight_grads + whole.bias_grads, total.weight_grads + total.bias_grads):
            assert np.allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("act", ["tanh", "relu", "sigmoid", "linear"])
    def test_chain_step_bit_equal_to_float_derivative(self, act):
        # reference: build the derivative as a float array, then multiply
        rng = np.random.default_rng(41)
        z = rng.normal(size=(64, 8))
        z[0, :3] = 0.0
        dh = rng.normal(size=(64, 8))
        dh[1, :2] = (-0.0, np.inf)
        out = _activate(act, z)
        derivative = {
            "tanh": 1.0 - out * out,
            "relu": (z > 0.0).astype(z.dtype),
            "sigmoid": out * (1.0 - out),
            "linear": np.ones_like(z),
        }[act]
        with np.errstate(invalid="ignore"):  # inf * 0 where relu is off
            expected = dh * derivative
            got = _pre_activation_grad(act, dh, z, out)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_output_grad_shape_contract(self):
        net = mlp_init([3, 4, 2], ["relu", "linear"], seed=0)
        _, cache = net.forward_cached(np.zeros((5, 3)))
        with pytest.raises(ContractViolation):
            net.backward(cache, np.zeros((5, 3)))

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        net = mlp_init([3, 6, 1], ["tanh", "linear"], seed=8)
        x = rng.normal(size=(2, 3))
        y, cache = net.forward_cached(x)
        tape = net.backward(cache, np.ones_like(y))
        h = 1e-6
        numeric = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                numeric[i, j] = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * h)
        assert max_rel_err(tape.input_grad, numeric) < 1e-4


class TestAdam:
    def test_zero_tape_first_step_leaves_params_unchanged(self):
        net = mlp_init([2, 4, 1], ["tanh", "linear"], seed=0)
        before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
        state = AdamState.for_net(net, learning_rate=0.1)
        adam_step(net, GradTape.zeros_like(net), state)
        after = list(net.weights) + list(net.biases)
        assert state.step_count == 1
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_zero_tape_decays_existing_moments(self):
        net = mlp_init([1, 1], ["linear"], seed=0)
        state = AdamState.for_net(net, learning_rate=0.1)
        tape = GradTape.zeros_like(net)
        tape.weight_grads[0][0, 0] = 1.0
        adam_step(net, tape, state)
        m_before = state.m_w[0][0, 0]
        adam_step(net, GradTape.zeros_like(net), state)
        assert state.m_w[0][0, 0] == pytest.approx(0.9 * m_before)
        assert state.step_count == 2

    def test_hand_computed_first_step(self):
        # single parameter w=0, grad=1, lr=0.1: bias-corrected m=v=1,
        # so the update is -0.1 / (1 + 1e-8)
        net = zero_net([1, 1], ["linear"])
        state = AdamState.for_net(net, learning_rate=0.1)
        tape = GradTape.zeros_like(net)
        tape.weight_grads[0][0, 0] = 1.0
        adam_step(net, tape, state)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert net.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)
        assert abs(net.weights[0][0, 0] + 0.1) < 1e-8

    def test_statefulness_two_calls_differ_from_doubled_gradient(self):
        def run(grads):
            net = zero_net([1, 1], ["linear"])
            state = AdamState.for_net(net, learning_rate=0.1)
            for g in grads:
                tape = GradTape.zeros_like(net)
                tape.weight_grads[0][0, 0] = g
                adam_step(net, tape, state)
            return net.weights[0][0, 0]

        assert run([1.0, 1.0]) != run([2.0])

    def test_non_finite_gradient_names_layer(self):
        net = mlp_init([2, 4, 1], ["tanh", "linear"], seed=0)
        state = AdamState.for_net(net, learning_rate=0.1)
        tape = GradTape.zeros_like(net)
        tape.weight_grads[1][0, 0] = np.nan
        with pytest.raises(NumericFault, match="layer 1"):
            adam_step(net, tape, state)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_non_finite_gradient_names_each_layer(self, layer, part):
        net = mlp_init([2, 4, 3, 1], ["tanh", "relu", "linear"], seed=0)
        state = AdamState.for_net(net, learning_rate=0.1)
        before = net.params.copy()
        tape = GradTape.zeros_like(net)
        grads = tape.weight_grads if part == "weight" else tape.bias_grads
        grads[layer].flat[-1] = np.inf
        with pytest.raises(NumericFault, match=f"layer {layer}"):
            adam_step(net, tape, state)
        assert state.step_count == 0
        assert np.array_equal(net.params, before)

    def test_state_cannot_be_built_without_moments(self):
        # a state without moments used to make adam_step a silent no-op
        with pytest.raises(TypeError):
            AdamState(learning_rate=0.1)

    def test_state_for_another_net_is_rejected(self):
        small = mlp_init([2, 3, 1], ["tanh", "linear"], seed=0)
        big = mlp_init([2, 4, 1], ["tanh", "linear"], seed=0)
        state = AdamState.for_net(small, learning_rate=0.1)
        before = big.params.copy()
        with pytest.raises(ContractViolation, match=r"17 parameters.*13/13 moments"):
            adam_step(big, GradTape.zeros_like(big), state)
        assert state.step_count == 0
        assert np.array_equal(big.params, before)

    def test_tape_for_another_net_is_rejected(self):
        small = mlp_init([2, 3, 1], ["tanh", "linear"], seed=0)
        big = mlp_init([2, 4, 1], ["tanh", "linear"], seed=0)
        with pytest.raises(ContractViolation, match=r"17 parameters but the tape has 13"):
            adam_step(big, GradTape.zeros_like(small), AdamState.for_net(big, learning_rate=0.1))

    @pytest.mark.parametrize(
        "sizes,acts",
        [([3, 8, 2], ["tanh", "linear"]), ([4, 64, 64, 1], ["relu", "relu", "linear"])],
    )
    def test_flat_update_bit_equal_to_per_layer_loop(self, sizes, acts):
        rng = np.random.default_rng(71)
        net = mlp_init(sizes, acts, seed=72)
        state = AdamState.for_net(net, learning_rate=1e-3)
        weights = [w.copy() for w in net.weights]
        biases = [b.copy() for b in net.biases]
        moments = tuple(
            [np.zeros_like(a) for a in arrays] for arrays in (weights, weights, biases, biases)
        )
        for t in range(1, 201):
            tape = GradTape.zeros_like(net)
            tape.grads[:] = rng.normal(scale=10.0 ** rng.uniform(-6, 1), size=tape.grads.size)
            adam_step(net, tape, state)
            reference_adam_step(
                weights, biases, tape.weight_grads, tape.bias_grads, moments, t, lr=1e-3
            )
            for flat, ref in zip(
                (net.weights + net.biases, state.m_w + state.m_b, state.v_w + state.v_b),
                (weights + biases, moments[0] + moments[2], moments[1] + moments[3]),
            ):
                assert all(np.array_equal(a, b) for a, b in zip(flat, ref))


class TestFlatStorage:
    def test_layout_is_init_draw_order(self):
        net = mlp_init([3, 5, 2], ["relu", "linear"], seed=11)
        expected = np.concatenate(
            [net.weights[0].ravel(), net.biases[0], net.weights[1].ravel(), net.biases[1]]
        )
        assert np.array_equal(net.params, expected)
        rng = np.random.default_rng(11)
        draws = [
            rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=n)
            for fan_in, n in ((3, 15), (3, 5), (5, 10), (5, 2))
        ]
        assert np.array_equal(net.params, np.concatenate(draws))

    def test_every_view_lies_inside_its_vector(self):
        net = mlp_init([3, 8, 8, 2], ["relu", "relu", "tanh"], seed=1)
        _, cache = net.forward_cached(np.ones((4, 3)))
        state = AdamState.for_net(net, learning_rate=0.1)
        owners = [
            (net.params, net.weights + net.biases),
            (state.m, state.m_w + state.m_b),
            (state.v, state.v_w + state.v_b),
        ]
        for tape in (GradTape.zeros_like(net), net.backward(cache, np.ones((4, 2)))):
            owners.append((tape.grads, tape.weight_grads + tape.bias_grads))
        for flat, views in owners:
            assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
            assert flat.size == net.param_count
            for view in views:
                assert np.shares_memory(view, flat)
        assert sum(v.size for v in net.weights + net.biases) == net.params.size

    def test_backward_fills_the_whole_tape(self):
        net = mlp_init([3, 6, 2], ["tanh", "linear"], seed=4)
        x = np.random.default_rng(2).normal(size=(5, 3))
        y, cache = net.forward_cached(x)
        tape = net.backward(cache, np.ones_like(y))
        h1 = np.tanh(x @ net.weights[0] + net.biases[0])
        dz0 = (np.ones_like(y) @ net.weights[1].T) * (1.0 - h1 * h1)
        expected = np.concatenate(
            [(x.T @ dz0).ravel(), dz0.sum(axis=0), (h1.T @ np.ones_like(y)).ravel(), np.full(2, 5.0)]
        )
        assert np.allclose(tape.grads, expected, rtol=1e-12, atol=0)

    def test_copy_shares_no_memory(self):
        net = mlp_init([3, 8, 2], ["relu", "linear"], seed=2)
        twin = net.copy()
        assert np.array_equal(twin.params, net.params)
        for a in [twin.params] + twin.weights + twin.biases:
            for b in [net.params] + net.weights + net.biases:
                assert not np.shares_memory(a, b)
        twin.weights[0][0, 0] += 1.0
        assert twin.params[0] != net.params[0]

    def test_in_place_layer_write_reaches_params(self):
        net = mlp_init([2, 3, 1], ["relu", "linear"], seed=5)
        net.weights[1][...] = 7.0
        net.biases[0][...] = -1.0
        assert np.array_equal(net.params[9:12], np.full(3, 7.0))
        assert np.array_equal(net.params[6:9], np.full(3, -1.0))

    def test_wrong_parameter_vector_rejected(self):
        with pytest.raises(ContractViolation, match="13 parameters"):
            Mlp([2, 3, 1], ["tanh", "linear"], np.zeros(12))


class TestWorkspace:
    @pytest.mark.parametrize(
        "sizes, acts",
        [
            ([3, 64, 64, 1], ["relu", "relu", "sigmoid"]),  # ERO scoring net
            ([4, 64, 64, 1], ["relu", "relu", "linear"]),  # critic
        ],
    )
    @pytest.mark.parametrize(
        "n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 1, 20_000]
    )
    def test_blocked_forward_bit_equal_to_unblocked(self, sizes, acts, n):
        net = mlp_init(sizes, acts, seed=13)
        x = np.random.default_rng(n).normal(scale=2.0, size=(n, sizes[0]))
        assert np.array_equal(net.forward(x), reference_forward(net, x))

    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 7])
    def test_row_blocks_cover_the_rows_without_one_row_blocks(self, n):
        blocks = list(row_blocks(n))
        assert [row for start, stop in blocks for row in range(start, stop)] == list(range(n))
        assert all(start % BLOCK == 0 for start, _ in blocks)
        sizes = [stop - start for start, stop in blocks]
        assert all(size <= BLOCK + 1 for size in sizes)
        assert n == 1 or 1 not in sizes

    def test_successive_forward_results_share_no_memory(self):
        net = mlp_init([3, 8, 8, 2], ["relu", "relu", "tanh"], seed=3)
        x = np.random.default_rng(0).normal(size=(5, 3))
        first = net.forward(x)
        kept = first.copy()
        second = net.forward(x + 1.0)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, ws) for ws in net._workspace)
        assert np.array_equal(first, kept)

    def test_large_forward_keeps_the_workspace_within_block_rows(self):
        net = mlp_init([3, 64, 64, 1], ["relu", "relu", "sigmoid"], seed=0)
        out = net.forward(np.zeros((100_000, 3)))
        assert out.shape == (100_000, 1)
        assert net._workspace and all(len(ws) <= BLOCK for ws in net._workspace)
        net.forward(np.zeros((BLOCK + 1, 3)))  # one folded block, above the cap
        assert all(len(ws) <= BLOCK for ws in net._workspace)

    @pytest.mark.parametrize(
        "sizes, acts",
        [([3, 8, 2], ["tanh", "linear"]), ([4, 16, 16, 1], ["relu", "relu", "linear"]),
         ([3, 8, 8, 2], ["sigmoid", "relu", "tanh"])],
    )
    def test_reused_cache_and_tape_bit_equal_to_fresh(self, sizes, acts):
        rng = np.random.default_rng(5)
        net = mlp_init(sizes, acts, seed=6)
        cache, tape = None, GradTape.zeros_like(net)
        for n in (7, 7, 3, 7):
            x = rng.normal(size=(n, sizes[0]))
            dy = rng.normal(size=(n, sizes[-1]))
            y_fresh, fresh_cache = net.forward_cached(x)
            fresh = net.backward(fresh_cache, dy)
            y, cache = net.forward_cached(x, cache)
            reused = net.backward(cache, dy, tape)
            assert reused is tape
            assert np.array_equal(y, y_fresh)
            assert np.array_equal(reused.grads, fresh.grads)
            assert np.array_equal(reused.input_grad, fresh.input_grad)
            assert np.array_equal(net.input_gradient(cache, dy), fresh.input_grad)

    def test_tape_for_another_net_is_rejected_by_backward(self):
        net = mlp_init([2, 4, 1], ["tanh", "linear"], seed=0)
        other = mlp_init([2, 3, 1], ["tanh", "linear"], seed=0)
        _, cache = net.forward_cached(np.zeros((2, 2)))
        with pytest.raises(ContractViolation, match="17 parameters but the tape has 13"):
            net.backward(cache, np.zeros((2, 1)), GradTape.zeros_like(other))

    def test_backward_leaves_output_grad_untouched(self):
        net = mlp_init([3, 8, 1], ["relu", "tanh"], seed=2)
        _, cache = net.forward_cached(np.random.default_rng(1).normal(size=(4, 3)))
        dy = np.random.default_rng(2).normal(size=(4, 1))
        kept = dy.copy()
        net.backward(cache, dy)
        net.input_gradient(cache, dy)
        assert np.array_equal(dy, kept)


class TestGradCheck:
    def test_linear_net_squared_error_closed_form(self):
        # loss = (w*x + b - y0)^2 has gradient 2(w*x + b - y0)*x wrt w
        net = zero_net([1, 1], ["linear"])
        net.weights[0][0, 0] = 0.7
        net.biases[0][0] = -0.2
        x = np.array([[1.3]])
        y0 = 2.0

        def loss_fn(y):
            diff = y - y0
            return float((diff**2).sum()), 2.0 * diff

        err = grad_check(net, loss_fn, x)
        assert err < 1e-7
        # cross-check the analytic gradient against the closed form
        y, cache = net.forward_cached(x)
        tape = net.backward(cache, 2.0 * (y - y0))
        closed = 2.0 * (0.7 * 1.3 - 0.2 - y0) * 1.3
        assert tape.weight_grads[0][0, 0] == pytest.approx(closed, rel=1e-12)

    def test_tanh_net_random_loss_weights(self):
        rng = np.random.default_rng(17)
        net = mlp_init([2, 4, 1], ["tanh", "tanh"], seed=19)
        x = rng.normal(size=(3, 2))
        coeff = rng.normal(size=(3, 1))

        def loss_fn(y):
            return float((coeff * y).sum()), coeff.copy()

        assert grad_check(net, loss_fn, x) < 1e-4

    def test_every_repo_architecture_passes(self):
        rng = np.random.default_rng(31)
        combos = [
            ([3, 64, 64, 1], ["relu", "relu", "sigmoid"]),   # replay scoring net
            ([3, 64, 64, 1], ["relu", "relu", "tanh"]),      # actor
            ([4, 64, 64, 1], ["relu", "relu", "linear"]),    # critic
        ]
        for sizes, acts in combos:
            net = mlp_init(sizes, acts, seed=41)
            x = rng.normal(size=(2, sizes[0]))
            coeff = rng.normal(size=(2, sizes[-1]))

            def loss_fn(y, coeff=coeff):
                return float((coeff * y).sum()), coeff.copy()

            assert grad_check(net, loss_fn, x) < 1e-4
