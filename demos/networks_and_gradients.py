"""Walk through the network substrate: forward passes, analytic gradients
checked against finite differences, and a few Adam steps on a toy regression.

Run: python3 demos/networks_and_gradients.py
"""

import numpy as np

from replay_opt import AdamState, GradTape, adam_step, grad_check, mlp_init

rng = np.random.default_rng(0)

print("== A 3-64-64-1 network, the same shape the agent uses ==")
net = mlp_init([3, 64, 64, 1], ["relu", "relu", "linear"], seed=0)
print(f"parameter count: {net.param_count}")
x = rng.normal(size=(5, 3))
print(f"forward on a batch of 5 -> shape {net.forward(x).shape}")

print("\n== Gradient correctness on a small random net ==")
small = mlp_init([3, 8, 2], ["tanh", "linear"], seed=1)
coeff = rng.normal(size=(4, 2))


def loss_fn(y):
    return float((coeff * y).sum()), coeff.copy()


err = grad_check(small, loss_fn, rng.normal(size=(4, 3)))
print(f"max relative error vs central differences: {err:.2e}")

print("\n== Adam on a one-input regression: w * 1 + b -> 2.0 ==")
toy = mlp_init([1, 1], ["linear"], seed=2)
toy.weights[0][0, 0] = 0.0
toy.biases[0][0] = 0.0
state = AdamState.for_net(toy, learning_rate=0.1)
data_x = np.array([[1.0]])
for step in range(1, 101):
    y, cache = toy.forward_cached(data_x)
    diff = y - 2.0
    tape = toy.backward(cache, 2.0 * diff)
    adam_step(toy, tape, state)
    if step in (1, 10, 100):
        w, b = toy.params
        print(f"step {step:3d}: w = {w:+.4f}  b = {b:+.4f}  loss = {float(diff[0, 0] ** 2):.5f}")

print("\nzero gradients leave parameters untouched on the first step:")
fresh = mlp_init([1, 1], ["linear"], seed=3)
w_before = fresh.weights[0][0, 0]
adam_step(fresh, GradTape.zeros_like(fresh), AdamState.for_net(fresh, learning_rate=0.1))
print(f"w before {w_before:+.6f}, after {fresh.weights[0][0, 0]:+.6f}")
