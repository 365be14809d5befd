"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray plus a closure describing how to push
gradients to its parents; backward() walks the recorded graph in
reverse topological order. The parameter leaves of a training or
Grad-CAM pass carry requires_grad; data leaves and the leaves of an
inference pass do not. An op's output needs a gradient only when one of
its parents does, and an output that needs none keeps no closure, no
parents and no saved arrays. Only the operations the fusion model needs
are implemented, each with an exact analytic adjoint (the test suite
checks every one against central finite differences).

conv2d is the im2col lowering (Chellapilla et al., 2006): a gather of
the input into columns, one batched matmul each way, and a scatter-add
of the column gradient back onto the input. Both index moves run
through one read-only plan per sample shape (_conv_plan), the flat
source index of every column entry with padding taps pointing at one
extra zero slot, so the plan does not grow with the batch. The gather
copies each sample, then that zero, into one row of a buffer and
applies the plan to every row with one np.take; the scatter is one
np.bincount per sample. bincount adds its weights in input order,
starting from 0.0, and the plan's order is (c, i, j, oy, ox), so every
input element receives its kernel taps in (i, j) order from +0.0:
exactly the sums of a per-tap strided += into a zeroed array, -0.0
included. ReLU takes fmax(x, 0.0), which maps NaN to 0 as a mask does,
then adds +0.0 to turn -0.0 into +0.0, matching where(x > 0, x, 0.0)
bit for bit without its branches; its push builds the x > 0 mask, so an
inference pass never does.

softmax takes the attention's 1/sqrt(d) as `scale` and computes
softmax(scale * a) in one fresh array: the product, then in place the
max subtracted, exp and the division by the sum, each step on the same
values as a separate scale op followed by an out-of-place softmax. Its
push keeps that softmax's expression y * (g - sum(g * y)), whose product
numpy's temporary elision writes into the g - sum array once it reaches
256 KB (as the (B, H, N, N) attention arrays do), and then scales that
one array in place where a scale op made a copy. The same expression
keeps the same result layout at every size.

mean, layer_norm and cross_entropy_mean divide a sum by the count where
they called np.mean: numpy's mean is that same sum followed by a true
divide, so the bits are the same without its Python wrapper. mean
divides in place as numpy does, so even its length-1 axes keep their
strides.

An in-place rewrite must keep its result's memory layout, not only its
values: numpy lays a fresh result out like its operands, later
reductions sum in layout order, and the incoming gradient of a
transposed tensor is a transposed view. layer_norm's push, for one,
stays out of place for that reason.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_push", "name")

    def __init__(self, data, parents=(), push=None, name=None, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if not requires_grad:
            for parent in parents:
                if parent.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = tuple(parents) if requires_grad else ()
        self._push = push if requires_grad else None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name})"

    def backward(self, grad=None):
        """Accumulate gradients of self into the graph.

        The walk is seeded with `grad` (same shape as self.data) when one
        is given, e.g. a one-hot on a single class score, else with ones.
        It visits only nodes that require a gradient.
        """
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and parent not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data) if grad is None else grad
        for node in reversed(order):
            if node._push is not None and node.grad is not None:
                node._push(node.grad)


def _accum(t: Tensor, g: np.ndarray) -> None:
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# Each op passes its push closure to the output Tensor, which keeps it only
# when the output requires a gradient. A push with one parent therefore runs
# only when that parent needs the adjoint; a push with several checks each.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def push(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return Tensor(a.data + b.data, (a, b), push)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def push(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return Tensor(a.data * b.data, (a, b), push)


def scale(a, k: float) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data * k, (a,), lambda g: _accum(a, g * k))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def push(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor(a.data @ b.data, (a, b), push)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.reshape(shape), (a,), lambda g: _accum(a, g.reshape(a.shape)))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inverse = tuple(axes.index(i) for i in range(len(axes)))
    return Tensor(a.data.transpose(axes), (a,), lambda g: _accum(a, g.transpose(inverse)))


def concat(parts, axis=-1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def push(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                _accum(p, piece)

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), parts, push)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.fmax(a.data, 0.0)  # NaN -> 0.0, as the mask drops it
    out += 0.0  # -0.0 -> +0.0
    return Tensor(out, (a,), lambda g: _accum(a, g * (a.data > 0)))


def mean(a, axes=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    if isinstance(axes, int):
        axes = (axes,)
    count = a.data.size if axes is None else math.prod(a.data.shape[ax] for ax in axes)

    def push(g):
        if not keepdims and axes is not None:
            g = np.expand_dims(g, axes)
        _accum(a, np.broadcast_to(g, a.shape) / count)

    out = a.data.sum(axis=axes, keepdims=keepdims)
    out /= count  # in place, as np.mean divides, so length-1 axes keep their strides
    return Tensor(out, (a,), push)


def softmax(a, axis=-1, scale=1.0) -> Tensor:
    """softmax(scale * a) along `axis`, computed in one fresh array."""
    a = as_tensor(a)
    y = a.data * scale
    y -= y.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def push(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        gx = y * (g - inner)
        gx *= scale
        _accum(a, gx)

    return Tensor(y, (a,), push)


def layer_norm(x, gamma, beta, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis with a learned affine."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = (centered**2).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std

    def push(g):
        reduce_axes = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            _accum(gamma, (g * x_hat).sum(axis=reduce_axes))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=reduce_axes))
        if x.requires_grad:
            g_hat = g * gamma.data
            gx = inv_std * (
                g_hat
                - g_hat.sum(axis=-1, keepdims=True) / n
                - x_hat * ((g_hat * x_hat).sum(axis=-1, keepdims=True) / n)
            )
            _accum(x, gx)

    return Tensor(gamma.data * x_hat + beta.data, (x, gamma, beta), push)


@functools.lru_cache(maxsize=64)
def _conv_plan(chans: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int):
    """Read-only im2col plan of one (chans, h, w) sample: the flat source index of
    every column entry, shape (chans * kh * kw, out_h * out_w), rows in (C, kh, kw)
    order as in w.reshape(F, -1). Taps that fall in the padding point at index
    chans * h * w, one zero slot past the end of the flattened sample."""
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    rows = np.arange(kh)[:, None, None, None] + stride * np.arange(out_h)[None, None, :, None] - pad
    cols = np.arange(kw)[None, :, None, None] + stride * np.arange(out_w)[None, None, None, :] - pad
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)  # (kh, kw, out_h, out_w)
    source = np.arange(chans)[:, None, None, None, None] * (h * w) + rows * w + cols
    plan = np.where(inside, source, chans * h * w).reshape(chans * kh * kw, out_h * out_w)
    plan.flags.writeable = False
    return plan, out_h, out_w


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    batch, chans, h, w = x.shape
    plan, out_h, out_w = _conv_plan(chans, h, w, kh, kw, stride, pad)
    n = chans * h * w
    buf = np.empty((batch, n + 1), dtype=x.dtype)
    buf[:, :n] = x.reshape(batch, n)
    buf[:, n] = 0.0
    return np.take(buf, plan, axis=1), out_h, out_w


def _col2im(dcols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int):
    batch, chans, h, w = x_shape
    plan = _conv_plan(chans, h, w, kh, kw, stride, pad)[0].ravel()
    n = chans * h * w
    dx = np.empty((batch, n), dtype=dcols.dtype)
    for k in range(batch):
        dx[k] = np.bincount(plan, weights=dcols[k].ravel(), minlength=n + 1)[:n]
    return dx.reshape(x_shape)


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> Tensor:
    """im2col plus batched matmul, both passes. x: (B, C, H, W); w: (F, C, kh, kw); b: (F,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    filters, _, kh, kw = w.shape
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, pad)
    w_mat = w.data.reshape(filters, -1)
    out_data = w_mat @ cols
    out_data += b.data[:, None]
    batch = x.data.shape[0]

    def push(g):
        g_mat = g.reshape(batch, filters, out_h * out_w)
        if b.requires_grad:
            _accum(b, g_mat.sum(axis=(0, 2)))
        if w.requires_grad:
            _accum(w, (g_mat @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        if x.requires_grad:
            dcols = w_mat.T @ g_mat
            _accum(x, _col2im(dcols, x.data.shape, kh, kw, stride, pad))

    return Tensor(out_data.reshape(batch, filters, out_h, out_w), (x, w, b), push)


def linear(x, w, b) -> Tensor:
    """x: (..., D_in); w: (D_out, D_in); b: (D_out,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def push(g):
        if x.requires_grad:
            _accum(x, g @ w.data)
        lead = math.prod(g.shape[:-1])
        g2 = g.reshape(lead, g.shape[-1])
        if w.requires_grad:
            _accum(w, g2.T @ x.data.reshape(lead, x.data.shape[-1]))
        if b.requires_grad:
            _accum(b, g2.sum(axis=0))

    out = x.data @ w.data.T
    out += b.data
    return Tensor(out, (x, w, b), push)


def cross_entropy_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target], stabilized."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    batch, n_classes = logits.data.shape
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= n_classes:
        raise ValueError(f"target out of range for {n_classes} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    lse = np.log(e.sum(axis=1))
    picked = z[np.arange(batch), targets]

    def push(g):
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(batch), targets] -= 1.0
        _accum(logits, g * probs / batch)

    return Tensor((lse - picked).sum() / batch, (logits,), push)
