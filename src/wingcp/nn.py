"""Minimal deterministic neural-network engine on float64 numpy.

Layers expose a functional interface: ``forward(x) -> (y, cache)`` and
``backward(dy, cache, need_dx=True) -> (dx, grads)`` where ``grads``
aligns with the layer's ``params`` list and ``dx`` is None when
``need_dx`` is false. No layer mutates shared state during a pass, so a
parameter snapshot can serve inference from many threads.

Conv activations are channel-major: a conv stack takes its input as
(C, B, H, W), every Conv2d and LeakyReLU between the first Conv2d and
the flatten passes (C, B, H, W) arrays forward and back, and
ChannelFlatten turns the last one into the (B, C*H*W) rows the dense
head reads. Conv2d uses stride equal to the kernel and "valid" output
sizing (floor(dim / k)): a remainder row or column that does not fill a
window is dropped. A spatial dim smaller than the kernel is zero-padded
(bottom/right) up to kernel size so the stack stays applicable to 2x2
inputs.

Conv2d has one operand layout, whatever the input's memory layout: a
C-contiguous (C*kh*kw, B*ho*wo) window matrix filled by ``kh * kw``
block copies, and a C-contiguous (out_ch, B*ho*wo) output gradient from
which dk, db and the window gradients are all taken. In the channel-major
layout both are the layer's own arrays: its output is the product's
(out_ch, B, ho, wo) result and the gradient it receives is that shape,
so neither is transposed or copied. OpenBLAS rounds a product
differently for a C- or an F-contiguous operand, so fixing the layouts
makes a conv call's bits depend only on its input values.

Every product goes through one rule, ``_matmul``: from OpenBLAS's split
size on, a product whose output is at most 16 rows tall (conv forward
and kernel gradients) runs in column blocks and one at most 64 columns
wide in row blocks, each below the split, so it stays on the calling
thread and its bits do not depend on the thread count; only wider and
taller products (mlp's 128-wide ones) are taken whole. On one BLAS
build and CPU kernel every output of the pipeline is therefore the same
at any BLAS thread count; the test suite compares 1 and 2 OpenBLAS
threads byte for byte. One exception is known: a whole product whose
inner dimension exceeds 384 (OpenBLAS's K block on its Haswell kernels)
rounds differently when OpenBLAS splits it over threads, and mlp's
weight gradients at a batch above 384 samples are such products.

LeakyReLU caches its output, not a mask: for finite x and a slope in
[0, 1], y > 0 exactly where x > 0, so ``max(y > 0, slope) * dy`` is the
input gradient, bit for bit the masked select it replaces.

Layers only read their parameter arrays, the attributes each layer class
names in ``param_attrs``. A ``wingcp.model`` model binds them from
construction as views of one flat float64 buffer, which the Adam step
updates in place.
"""

import numpy as np

__all__ = [
    "Layer",
    "LeakyReLU",
    "Dense",
    "Conv2d",
    "ChannelFlatten",
    "Stack",
    "dense_stack",
    "conv_stack",
    "uniform_init",
]


def uniform_init(rng, shape, fan_in):
    """Uniform fan-in scaled init, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """A layer whose ``param_attrs`` name the attributes that hold its parameter arrays, in order."""

    param_attrs = ()

    @property
    def params(self):
        return [getattr(self, name) for name in self.param_attrs]


class LeakyReLU(Layer):
    def __init__(self, slope=0.01):
        self.slope = float(slope)  # an int slope would make the backward's gain an int array

    def forward(self, x):
        # max(x, slope*x) is LeakyReLU for 0 <= slope <= 1, the range ModelConfig admits
        y = self.slope * x
        np.maximum(x, y, out=y)
        return y, y

    def backward(self, dy, cache, need_dx=True):
        if not need_dx:
            return None, []
        gain = np.maximum(cache > 0.0, self.slope)  # 1.0 where y > 0, i.e. where x > 0
        gain *= dy
        return gain, []


# 2 threads x OpenBLAS's GEMM_MULTITHREAD_THRESHOLD (4) x 65536 multiply-adds
_BLAS_SPLIT = 2 * 4 * 65536
_ROW_BLOCKED = 64  # widest output taken in row blocks
_COLUMN_BLOCKED = 16  # tallest output taken in column blocks (a conv layer's out-channels)
_TILE = 8  # a block's rows or columns are a multiple of this


def _matmul(a, b):
    """``a @ b`` on the calling thread, unless its output is both wide and tall.

    Every product ``nn`` makes goes through here. OpenBLAS splits a
    product over threads from ``_BLAS_SPLIT`` multiply-adds on. Such a
    product is taken in column blocks when its output is at most
    ``_COLUMN_BLOCKED`` rows tall (a conv layer's out-channels: its
    forward and its weight gradient), else in row blocks when it is at
    most ``_ROW_BLOCKED`` columns wide, each block below ``_BLAS_SPLIT``
    and none cutting the inner dimension; any other product, such as
    mlp's 128-wide ones, is taken whole.

    On a 2-CPU host a second thread saves little on the blocked products
    (5-25 us of 30-90 us at 470-1080 x 147 x 16), and it costs: the call
    must wait for a second free CPU (with one of two CPUs busy, rgfil
    training spent 7x longer in its dense products), and a worker once
    woken spins for 1-2 s, on the caller's CPU when both are scheduled
    on one, which made the first ~20 paper-default predicts of a
    benchmark round take 23-47 ms instead of 8-10 ms. Blocks also fix
    the bits: a blocked product rounds the same at any thread count.
    """
    m, k = a.shape
    n = b.shape[1]
    if m * k * n < _BLAS_SPLIT or (n > _ROW_BLOCKED and m > _COLUMN_BLOCKED):
        return np.matmul(a, b)
    out = np.empty((m, n))
    if m <= _COLUMN_BLOCKED:
        for i, j in _blocks(n, m * k):
            np.matmul(a, b[:, i:j], out=out[:, i:j])
    else:
        for i, j in _blocks(m, k * n):
            np.matmul(a[i:j], b, out=out[i:j])
    return out


def _blocks(size, per_unit):
    """(start, stop) of the blocks that cut ``size`` rows or columns of ``per_unit`` multiply-adds each.

    A block holds a multiple of ``_TILE`` units (as many as fit when
    fewer than ``_TILE + 1`` do), which keeps OpenBLAS's micro-tiles
    where the whole product has them, with room below the split for one
    more: a single last unit joins the block before it,
    since numpy hands a one-row or one-column product to gemv, which
    sums in another order. On OpenBLAS 0.3.31's SkylakeX kernels every
    product of the benchmark workloads then has the whole product's
    bits. Elsewhere a block can move the last bit, mostly where the
    whole product's bits depend on the thread count: an inner dimension
    past OpenBLAS's K block (a weight gradient at a training batch above
    about 800), or a ragged edge tile (conv forward at a batch above 976
    that is not a multiple of 8).
    """
    most = max(1, (_BLAS_SPLIT - 1) // per_unit)
    step = (most - 1) // _TILE * _TILE or most
    starts = list(range(0, size, step))
    if step < most and len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [size])


class Dense(Layer):
    """Affine map y = x @ W + b for x of shape (B, in_dim)."""

    param_attrs = ("w", "b")

    def __init__(self, w, b):
        self.w = w
        self.b = b

    @classmethod
    def create(cls, rng, in_dim, out_dim):
        return cls(uniform_init(rng, (in_dim, out_dim), in_dim), np.zeros(out_dim))

    def forward(self, x):
        y = _matmul(x, self.w)
        y += self.b
        return y, x

    def backward(self, dy, cache, need_dx=True):
        x = cache
        dw = _matmul(x.T, dy)
        db = np.add.reduce(dy, axis=0)  # ndarray.sum, without its Python wrapper
        return (_matmul(dy, self.w.T) if need_dx else None), [dw, db]


class Conv2d(Layer):
    """Non-overlapping 2D convolution (stride = kernel), a patchify, on channel-major activations.

    Kernels (out_ch, in_ch, kh, kw), x (C, B, H, W), output (out_ch, B,
    ho, wo). Each output cell is one (kh, kw) window, so forward and
    backward are single matrix products with the (C*kh*kw, B*ho*wo)
    window matrix of the input.
    """

    param_attrs = ("k", "b")

    def __init__(self, k, b):
        self.k = k
        self.b = b

    @classmethod
    def create(cls, rng, in_ch, out_ch, kernel=(2, 2)):
        fan_in = in_ch * kernel[0] * kernel[1]
        k = uniform_init(rng, (out_ch, in_ch) + tuple(kernel), fan_in)
        return cls(k, np.zeros(out_ch))

    @staticmethod
    def output_shape(in_shape, out_ch, kernel):
        c, h, w = in_shape
        return (out_ch, max(h, kernel[0]) // kernel[0], max(w, kernel[1]) // kernel[1])

    def forward(self, x):
        o, c, kh, kw = self.k.shape
        _, b, h, w = x.shape
        ho, wo = max(h, kh) // kh, max(w, kw) // kw
        # kernel offset (i, j) of every window is one strided block; blocks in the padding are 0
        cols = np.empty((c, kh, kw, b, ho, wo))
        cols[:, h:] = 0.0
        cols[:, :, w:] = 0.0
        for i in range(min(kh, h)):
            for j in range(min(kw, w)):
                cols[:, i, j] = x[:, :, i : ho * kh : kh, j : wo * kw : kw]
        cols = cols.reshape(c * kh * kw, b * ho * wo)
        out = _matmul(self.k.reshape(o, -1), cols).reshape(o, b, ho, wo)
        out += self.b[:, None, None, None]
        return out, (x.shape, cols)

    def backward(self, dy, cache, need_dx=True):
        x_shape, cols = cache
        o, c, kh, kw = self.k.shape
        _, b, h, w = x_shape
        _, _, ho, wo = dy.shape
        dy_t = np.ascontiguousarray(dy).reshape(o, -1)
        dk = _matmul(dy_t, cols.T).reshape(self.k.shape)
        db = np.add.reduce(dy_t, axis=1)
        if not need_dx:
            return None, [dk, db]
        dwin = _matmul(dy_t.T, self.k.reshape(o, -1)).reshape(b, ho, wo, c, kh, kw)
        dx = np.empty(x_shape)
        dx[:, :, ho * kh :] = 0.0  # the remainder rows and columns no window reaches
        dx[:, :, :, wo * kw :] = 0.0
        for i in range(min(kh, h)):
            for j in range(min(kw, w)):
                dx[:, :, i : ho * kh : kh, j : wo * kw : kw] = dwin[:, :, :, :, i, j].transpose(3, 0, 1, 2)
        return dx, [dk, db]


class ChannelFlatten(Layer):
    """Channel-major (C, B, ...) activations to C-contiguous (B, C*...) rows, and back."""

    def forward(self, x):
        return np.swapaxes(x, 0, 1).reshape(x.shape[1], -1), x.shape

    def backward(self, dy, cache, need_dx=True):
        if not need_dx:
            return None, []
        c, b, *rest = cache
        return np.ascontiguousarray(np.swapaxes(dy.reshape(b, c, *rest), 0, 1)), []


class Stack:
    """Ordered sequence of layers; ``params`` lists their parameter arrays in layer order."""

    def __init__(self, layers):
        self.layers = layers

    @property
    def params(self):
        return [p for layer in self.layers for p in layer.params]

    def forward(self, x, keep=True):
        """Output and, if ``keep``, each layer's cache for backward (None otherwise)."""
        caches = [] if keep else None
        for layer in self.layers:
            x, cache = layer.forward(x)
            if keep:
                caches.append(cache)
        return x, caches

    def backward(self, dy, caches):
        """Parameter gradients in ``params`` order; the stack's input gradient is not formed."""
        grads = []
        for i in range(len(self.layers) - 1, -1, -1):
            dy, g = self.layers[i].backward(dy, caches[i], need_dx=i > 0)
            grads[:0] = g
        return grads


def dense_stack(rng, in_dim, widths, out_dim, slope=0.01) -> Stack:
    """Hidden Dense+LeakyReLU layers followed by an affine head."""
    layers = []
    d = in_dim
    for w in widths:
        layers.append(Dense.create(rng, d, w))
        layers.append(LeakyReLU(slope))
        d = w
    layers.append(Dense.create(rng, d, out_dim))
    return Stack(layers)


def conv_stack(rng, in_shape, channels, out_dim, kernel=(2, 2), slope=0.01) -> Stack:
    """Conv+LeakyReLU layers, then flatten and one affine map to out_dim.

    ``in_shape`` is one sample's (C, H, W); the stack takes its input
    channel-major, (C, B, H, W), and returns (B, out_dim).
    """
    layers = []
    shape = tuple(in_shape)
    for out_ch in channels:
        layers.append(Conv2d.create(rng, shape[0], out_ch, kernel))
        layers.append(LeakyReLU(slope))
        shape = Conv2d.output_shape(shape, out_ch, kernel)
    layers.append(ChannelFlatten())
    flat = int(np.prod(shape))
    layers.append(Dense.create(rng, flat, out_dim))
    return Stack(layers)
