"""Tour of the numpy layer zoo and the finite-difference gradient checker.

Every layer exposes forward/backward with explicit caches, so a whole
network is just function composition. The gradient checker perturbs each
input coordinate with central differences and compares against the
analytic backward pass.
"""

import numpy as np

from platerec import nn

rng = nn.make_rng(0, "demo")

# A conv layer maps NCHW -> NCHW with same padding; 3x3 kernels, no bias.
conv = nn.Conv3x3(3, 8, rng)
x = rng.random((2, 3, 16, 16)).astype(np.float32)
y = conv.forward(x, mode=nn.TRAINING)
print(f"conv: {x.shape} -> {y.shape}")

# Pooling halves the spatial dims and remembers which element won.
pool = nn.MaxPool2x2()
p = pool.forward(y, mode=nn.TRAINING)
print(f"pool: {y.shape} -> {p.shape}")

# The same layers rebuilt in float64 pass a finite-difference audit.
conv64 = nn.Conv3x3(2, 3, nn.make_rng(1, "fd"), dtype=np.float64)
x64 = nn.make_rng(1, "fd-x").standard_normal((1, 2, 5, 5))
err = nn.finite_diff_gradcheck(
    lambda: conv64.forward(x64, mode=nn.TRAINING),
    conv64.backward, [x64], conv64.params(),
)
print(f"conv gradient max relative error: {err:.2e}")

# Adam drives a quadratic to its minimum in a few hundred steps. It updates
# an arena, parameters packed into one contiguous buffer as every model packs
# its own, so the gradient is written into the arena's buffer in place.
param = nn.Parameter(np.array([5.0, -3.0], dtype=np.float32))
arena = nn.Arena([param])
for step in range(500):
    param.grad[...] = 2.0 * (param.value - np.array([1.0, 2.0], dtype=np.float32))
    nn.adam_step(arena, lr=0.05)
print(f"adam minimized quadratic at {param.value.round(3)} (target [1, 2])")
