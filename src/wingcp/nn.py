"""Minimal deterministic neural-network engine on float64 numpy.

Layers expose a functional interface: ``forward(x) -> (y, cache)`` and
``backward(dy, cache) -> (dx, grads)`` where ``grads`` aligns with the
layer's ``params`` list. No layer mutates shared state during a pass,
so a parameter snapshot can serve inference from many threads.

Conv2d follows NCHW layout with stride equal to the kernel and "valid"
output sizing (floor(dim / k)): a remainder row or column that does not
fill a window is dropped. A spatial dim smaller than the kernel is
zero-padded (bottom/right) up to kernel size so the stack stays
applicable to 2x2 inputs.
"""

import numpy as np

__all__ = [
    "LeakyReLU",
    "Dense",
    "Conv2d",
    "Flatten",
    "Stack",
    "dense_stack",
    "conv_stack",
    "uniform_init",
]


def uniform_init(rng, shape, fan_in):
    """Uniform fan-in scaled init, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LeakyReLU:
    def __init__(self, slope=0.01):
        self.slope = slope
        self.params = []

    def forward(self, x):
        pos = x > 0.0
        y = self.slope * x
        if 0.0 <= self.slope <= 1.0:  # then max(x, slope*x) is the np.where form bit for bit
            np.maximum(x, y, out=y)
        else:
            np.copyto(y, x, where=pos)
        return y, pos

    def backward(self, dy, cache):
        pos = cache
        return np.where(pos, dy, self.slope * dy), []


class Dense:
    """Affine map y = x @ W + b for x of shape (B, in_dim)."""

    def __init__(self, w, b):
        self.w = w
        self.b = b

    @classmethod
    def create(cls, rng, in_dim, out_dim):
        return cls(uniform_init(rng, (in_dim, out_dim), in_dim), np.zeros(out_dim))

    @property
    def params(self):
        return [self.w, self.b]

    def forward(self, x):
        y = x @ self.w
        y += self.b
        return y, x

    def backward(self, dy, cache):
        x = cache
        dw = x.T @ dy
        db = dy.sum(axis=0)
        return dy @ self.w.T, [dw, db]


class Conv2d:
    """Non-overlapping 2D convolution (stride = kernel), a patchify.

    Kernels (out_ch, in_ch, kh, kw), x (B, C, H, W). Each output cell is
    one (kh, kw) window, so forward and backward are single contractions
    over the (C, kh, kw) axes of a window view of the input.
    """

    def __init__(self, k, b):
        self.k = k
        self.b = b

    @classmethod
    def create(cls, rng, in_ch, out_ch, kernel=(2, 2)):
        fan_in = in_ch * kernel[0] * kernel[1]
        k = uniform_init(rng, (out_ch, in_ch) + tuple(kernel), fan_in)
        return cls(k, np.zeros(out_ch))

    @property
    def params(self):
        return [self.k, self.b]

    def _pad(self, x):
        kh, kw = self.k.shape[2], self.k.shape[3]
        ph = max(0, kh - x.shape[2])
        pw = max(0, kw - x.shape[3])
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)))
        return x

    def _windows(self, xp):
        """View (B, C, ho, kh, wo, kw) of the whole windows of a padded input."""
        kh, kw = self.k.shape[2], self.k.shape[3]
        b, c, h, w = xp.shape
        ho, wo = h // kh, w // kw
        return xp[:, :, : ho * kh, : wo * kw].reshape(b, c, ho, kh, wo, kw)

    @staticmethod
    def output_shape(in_shape, out_ch, kernel):
        c, h, w = in_shape
        return (out_ch, max(h, kernel[0]) // kernel[0], max(w, kernel[1]) // kernel[1])

    def forward(self, x):
        xp = self._pad(x)
        out = np.tensordot(self.k, self._windows(xp), axes=([1, 2, 3], [1, 3, 5]))
        out = np.moveaxis(out, 0, 1) + self.b[None, :, None, None]
        return out, (xp, x.shape)

    def backward(self, dy, cache):
        xp, x_shape = cache
        dk = np.tensordot(dy, self._windows(xp), axes=([0, 2, 3], [0, 2, 4]))
        dxp = np.zeros_like(xp)
        dwin = np.tensordot(dy, self.k, axes=([1], [0]))  # (B, ho, wo, C, kh, kw)
        self._windows(dxp)[...] = dwin.transpose(0, 3, 1, 4, 2, 5)
        db = dy.sum(axis=(0, 2, 3))
        dx = dxp[:, :, : x_shape[2], : x_shape[3]]
        return dx, [dk, db]


class Flatten:
    def __init__(self):
        self.params = []

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache):
        return dy.reshape(cache), []


class Stack:
    """Ordered sequence of layers with a shared flat parameter list."""

    def __init__(self, layers):
        self.layers = layers

    @property
    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params)
        return out

    def set_params(self, arrays):
        i = 0
        for layer in self.layers:
            if isinstance(layer, Dense):
                layer.w, layer.b = arrays[i], arrays[i + 1]
                i += 2
            elif isinstance(layer, Conv2d):
                layer.k, layer.b = arrays[i], arrays[i + 1]
                i += 2
        if i != len(arrays):
            raise ValueError("parameter count mismatch")

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, dy, caches):
        grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy, g = layer.backward(dy, cache)
            grads[:0] = g
        return dy, grads


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
    """Conv+LeakyReLU layers, then flatten and one affine map to out_dim."""
    layers = []
    shape = tuple(in_shape)
    for out_ch in channels:
        layers.append(Conv2d.create(rng, shape[0], out_ch, kernel))
        layers.append(LeakyReLU(slope))
        shape = Conv2d.output_shape(shape, out_ch, kernel)
    layers.append(Flatten())
    flat = int(np.prod(shape))
    layers.append(Dense.create(rng, flat, out_dim))
    return Stack(layers)
