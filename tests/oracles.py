"""Reference implementations the tests compare the library against: direct
loops over the documented equations, with no vectorization to share a bug."""

import math

import numpy as np


def naive_selective_scan(u, p):
    """Sequential recurrence evaluated directly from the documented equations:
    the readouts <C_t, h_t> of one traversal, without the skip term."""
    t_len, c = u.shape[-2:]
    n = p.state_dim
    dt = np.logaddexp(0.0, u @ p.dt_weight.data + p.dt_bias.data)
    b_tok = u @ p.b_weight.data
    c_tok = u @ p.c_weight.data
    a = -np.exp(p.a_log.data)  # A_c, negative rates
    h = np.zeros(u.shape[:-2] + (c, n))
    y = np.zeros_like(u)
    for t in range(t_len):
        decay = np.exp(dt[..., t, :, None] * a)
        drive = (dt[..., t, :] * u[..., t, :])[..., None] * b_tok[..., t, None, :]
        h = decay * h + drive
        y[..., t, :] = (h * c_tok[..., t, None, :]).sum(-1)
    return y


def naive_ssm_branch(v, branch):
    """The SSM branch on a (..., H, W, C) map: each of the four traversals
    (row-major, its reverse, column-major, its reverse) picked out by an index
    array, run through :func:`naive_selective_scan`, put back on the grid and
    summed, plus the four skips 4 * D * v, then the output projection."""
    *lead, h, w, c = v.shape
    grid = np.arange(h * w).reshape(h, w)
    tokens = v.reshape(*lead, h * w, c)
    merged = 4.0 * branch.skip_gain.data * tokens
    for order in (grid.ravel(), grid.ravel()[::-1], grid.T.ravel(), grid.T.ravel()[::-1]):
        merged[..., order, :] += naive_selective_scan(tokens[..., order, :], branch)
    return (merged @ branch.out_weight.data + branch.out_bias.data).reshape(v.shape)


def naive_attention(x, wq, wk, wv, wo):
    """Multi-head self-attention over the tokens of ``x`` (..., T, C), one
    leading index and one head at a time.  ``wq``, ``wk``, ``wv`` are
    (heads, C, d); the heads' outputs are joined in head order and mixed by
    ``wo`` (heads * d, C_out)."""
    heads, _, d = wq.shape
    out = np.zeros(x.shape[:-1] + (wo.shape[-1],))
    for idx in np.ndindex(*x.shape[:-2]):
        tokens = x[idx]
        mixed = []
        for head in range(heads):
            q, k, v = tokens @ wq[head], tokens @ wk[head], tokens @ wv[head]
            scores = q @ k.T / math.sqrt(d)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            mixed.append(e / e.sum(axis=-1, keepdims=True) @ v)
        out[idx] = np.concatenate(mixed, axis=-1) @ wo
    return out


def five_loop_conv_same(x, w, b):
    """Direct evaluation of the padded convolution sum, no vectorization."""
    h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((h, wd, cout))
    for i in range(h):
        for j in range(wd):
            for k in range(cout):
                acc = b[k]
                for m in range(kh):
                    for n in range(kw):
                        ii, jj = i + m - pt, j + n - pl
                        if 0 <= ii < h and 0 <= jj < wd:
                            for l in range(cin):
                                acc += x[ii, jj, l] * w[m, n, l, k]
                out[i, j, k] = acc
    return out


def brute_force_metrics(preds, labels, k):
    """Independent loop-based confusion/metric script."""
    confusion = [[0] * k for _ in range(k)]
    for p, t in zip(preds, labels):
        confusion[t][p] += 1
    correct = sum(confusion[i][i] for i in range(k))
    acc = correct / len(labels)
    precs, recs, f1s = [], [], []
    for c in range(k):
        pred_c = sum(confusion[r][c] for r in range(k))
        true_c = sum(confusion[c])
        prec = confusion[c][c] / pred_c if pred_c else 0.0
        rec = confusion[c][c] / true_c if true_c else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        precs.append(prec)
        recs.append(rec)
    return confusion, acc, sum(precs) / k, sum(recs) / k, sum(f1s) / k
