"""The four encoding strategies applied to one feature map.

A mixing block runs the same normalized feature map through four parallel
encoders: a local convolution, full self-attention, a per-position channel
MLP, and a four-direction selective state-space scan.  All four preserve
the map's shape, so they can be fused elementwise afterwards.
"""

import numpy as np

from mixssm import Tensor
from mixssm.encoders import (
    AttentionBranch,
    ChannelMlpBranch,
    ConvBranch,
    SsmBranch,
    cross_merge,
    cross_scan,
)

rng = np.random.default_rng(42)
H, W, C = 6, 5, 16
v = Tensor(rng.standard_normal((H, W, C)).astype(np.float32))

branches = {
    "conv (local features)": ConvBranch(C, rng=rng),
    "attention (global mixing)": AttentionBranch(C, heads=2, rng=rng),
    "channel MLP (per-position)": ChannelMlpBranch(C, rng=rng),
    "selective SSM (long range)": SsmBranch(C, state_dim=8, rng=rng),
}
for name, branch in branches.items():
    out = branch(v)
    print(f"{name:30s} {v.shape} -> {out.shape}")

# The SSM branch sees the 2-d grid as four 1-d traversals, stacked
# time-major (step t of all four directions side by side): row-major, its
# reverse, column-major, its reverse.  Re-ordering them back and summing
# reproduces the map exactly four times over.
tiny = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3, 1))
seqs = cross_scan(tiny)
print("stacked traversals (T, directions, C):", seqs.shape)
orders = {
    "row-major order [0, 1, 2, 3, 4, 5]": [0, 1, 2, 3, 4, 5],
    "reverse row-major order [5, 4, 3, 2, 1, 0]": [5, 4, 3, 2, 1, 0],
    "column-major order [0, 3, 1, 4, 2, 5]": [0, 3, 1, 4, 2, 5],
    "reverse column-major order [5, 2, 4, 1, 3, 0]": [5, 2, 4, 1, 3, 0],
}
for d, (claim, order) in enumerate(orders.items()):
    print(f"{claim}: {seqs.data[:, d, 0].tolist() == order}")
merged = cross_merge(seqs, 2, 3)
print("merge(scan(V)) == 4V:", np.array_equal(merged.data, 4 * tiny.data))

# Full attention has no notion of position: permuting the tokens permutes
# its output the same way.
attention = branches["attention (global mixing)"]
perm = rng.permutation(H * W)
shuffled = Tensor(v.data.reshape(H * W, C)[perm].reshape(H, W, C))
out = attention(v).data.reshape(H * W, C)
out_shuffled = attention(shuffled).data.reshape(H * W, C)
print("permuting the tokens permutes the output:", np.allclose(out_shuffled, out[perm], atol=1e-5))
