"""A tour of the numerical substrate: tensors, the tape, and gradient checking.

Everything in this library runs on a small reverse-mode autodiff engine over
numpy buffers.  This script builds a few graphs by hand and verifies the
recorded gradients against central finite differences.
"""

import numpy as np

from mixssm import Tensor, finite_diff_check
from mixssm.tensor import conv2d, gelu, matmul, maximum, mul, reduce_mean, reduce_sum, softmax

# Tensors carry a value buffer, an optional gradient, and (when requested)
# a tape node linking them to the ops that produced them.
x = Tensor(np.array([3.0, -1.0, 2.0]), requires_grad=True)
loss = reduce_sum(mul(x, x))
loss.backward()
print("d/dx sum(x^2) at", x.data, "->", x.grad)  # 2x

# A graph is walked once: backward releases each node as soon as its rule has
# run, so walking the same loss again is refused instead of reading freed state.
try:
    loss.backward()
    refused = False
except RuntimeError:
    refused = True
print("a second backward() on the same loss raises:", refused)

# A graph has one precision: a float32 model backpropagates in float32, also
# through maximum, whose ties split the gradient.
u = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
reduce_sum(maximum(u, Tensor(np.array([1.0, 0.0], dtype=np.float32)))).backward()
print("a float32 leaf's gradient through maximum is float32:", u.grad.dtype == np.float32)

# The engine refuses to produce NaN/Inf silently: overflow is an error.
try:
    from mixssm.tensor import exp

    exp(Tensor([1000.0]))
except ArithmeticError as err:
    print("overflow surfaces as an error:", err)

# softmax is computed with max subtraction, so wildly shifted logits agree.
z = np.array([1000.0, 1001.0, 999.0])
print("softmax of shifted logits:", softmax(Tensor(z)).data)

# Finite differences are the house oracle.  Any scalar-valued function of a
# tensor can be checked; here: mean of a gelu-activated convolution.
rng = np.random.default_rng(0)
kernel = Tensor(rng.standard_normal((3, 3, 2, 2)), dtype=np.float64)


def head(t: Tensor) -> Tensor:
    return reduce_mean(gelu(conv2d(t, kernel)))


probe = Tensor(rng.standard_normal((6, 6, 2)), dtype=np.float64)
err = finite_diff_check(head, probe, step=1e-4)
print(f"conv+gelu gradient check: max_rel_error={err:.2e} (below 1e-4: {err < 1e-4})")

# Matrix calculus falls out of the same machinery.
a = Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=np.float64)
b = Tensor(rng.standard_normal((3, 5)), requires_grad=True, dtype=np.float64)
reduce_sum(matmul(a, b)).backward()
print("d/dA sum(AB) equals row sums of B^T:", np.allclose(a.grad, b.data.sum(axis=1)))
