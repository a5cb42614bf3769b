"""Walk through the reverse-mode tape: record a tiny network, train it
with Adam, and confirm the analytic gradients against finite differences.

Run from the repository root:

    python3 demos/tape_and_gradients.py
"""

import numpy as np

from fvl import diffcore as dc
from fvl.diffcore import Tape, grad_check
from fvl.nnkit import Adam, Projection, init_fan_in, mse_loss
from fvl.rng import Xoshiro256


def main():
    tape = Tape()
    rng = Xoshiro256(11)

    # a 3 -> 8 -> 1 regression net, built from two Projection layers
    hidden = Projection(tape, 3, 8, activation="relu", name="hidden")
    out = Projection(tape, 8, 1, activation="none", name="out")
    # the layers register zero weights; draw them all as one block
    init_fan_in(rng, tape.params.values())
    inputs = rng.uniforms((32, 3), -1.0, 1.0)
    targets = np.sin(inputs.sum(axis=1, keepdims=True))

    def loss_fn():
        return mse_loss(out(hidden(inputs)), targets)

    print("training a toy regression for 200 Adam steps")
    optimizer = Adam(tape, lr=1e-2)
    for step in range(200):
        tape.reset()
        loss = loss_fn()
        tape.backward(loss)
        optimizer.step()
        if step % 50 == 0 or step == 199:
            print(f"  step {step:3d}  loss {float(loss.value):.6f}")

    print()
    print("checking every parameter against central finite differences")
    # the tape registers every layer's leaves, and grad_check checks them
    # all, rerunning the whole loss once per chunk of at most 64 elements
    report = grad_check(loss_fn)
    print(report.summary())

    # the same primitives compose into anything differentiable
    tape.reset()
    w = tape.leaf(rng.uniforms((4, 4), -0.5, 0.5), name="w")
    b = tape.leaf(rng.uniforms((4,), -0.1, 0.1), name="b")
    scalar = dc.mean_all(dc.relu(dc.affine(w, w, b)))
    tape.backward(scalar)
    print()
    print("mean(relu(w @ w^T + b)) adjoint row sums:", w.grad.sum(axis=1).round(4))


if __name__ == "__main__":
    main()
