"""How the selective module decides which encoder to trust, per channel.

The branch maps are stacked on one leading axis; their sum over it is pooled to one descriptor per channel; a small MLP
turns that descriptor into one logit per (channel, strategy) pair, and a
softmax over strategies yields convex mixing weights.
"""

import numpy as np

from mixssm import Tensor
from mixssm.fusion import SelectiveFusion, pool_global, selective_module, stack_branches
from mixssm.tensor import reduce_sum

rng = np.random.default_rng(7)
C, n = 8, 4
maps = [Tensor(rng.standard_normal((5, 5, C)).astype(np.float32)) for _ in range(n)]

fused = reduce_sum(stack_branches(maps), axis=0)
fusion = SelectiveFusion(C, n=n, rng=rng)
pooled = pool_global(fused, "average")
weights = fusion.selective_weights(pooled)
print("per-channel strategy weights (rows are channels):")
print(np.round(weights.data, 3))
print("rows sum to one:", np.allclose(weights.data.sum(-1), 1.0, atol=1e-6))

# The combined output is a convex combination, so it can never leave the
# per-element envelope of the branch outputs.
out = selective_module(maps, fusion)
stacked = np.stack([m.data for m in maps])
inside = (out.data >= stacked.min(0) - 1e-6).all() and (out.data <= stacked.max(0) + 1e-6).all()
print("output stays inside the branch envelope:", inside)

# The non-adaptive baselines replace the whole module.
for mode in ("elementwise-max", "elementwise-average"):
    alt = selective_module(maps, SelectiveFusion(C, n=n, mode=mode, rng=rng))
    print(f"{mode:20s} -> {alt.shape}")

# Pooling variants for the descriptor.  Stochastic pooling samples one
# position per channel when it is given a random stream (as training does)
# and takes the expectation without one (as evaluation does).
for method in ("average", "max", "l2", "stochastic"):
    g = pool_global(fused, method)
    print(f"pool {method:10s} first channels: {np.round(g.data[:4], 3)}")
sampled = pool_global(fused, "stochastic", rng=np.random.default_rng(0))
print(f"pool stochastic, sampled: {np.round(sampled.data[:4], 3)}")
