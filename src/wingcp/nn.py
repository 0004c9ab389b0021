"""Minimal deterministic neural-network engine on float64 numpy.

Layers expose a functional interface: ``forward(x) -> (y, cache)`` and
``backward(dy, cache, need_dx=True) -> (dx, grads)`` where ``grads``
aligns with the layer's ``params`` list and ``dx`` is None when
``need_dx`` is false. No layer mutates shared state during a pass, so a
parameter snapshot can serve inference from many threads.

Conv2d follows NCHW layout with stride equal to the kernel and "valid"
output sizing (floor(dim / k)): a remainder row or column that does not
fill a window is dropped. A spatial dim smaller than the kernel is
zero-padded (bottom/right) up to kernel size so the stack stays
applicable to 2x2 inputs.

Operand layouts are fixed, because they decide the bits. OpenBLAS rounds
a product differently depending on whether an operand is C- or
F-contiguous, so every Conv2d product gets exactly the array (values,
shape, strides) that ``np.tensordot`` would hand to ``np.dot``: the
window matrix is a reshape view of the input wherever that reshape is a
view, and a C-contiguous copy otherwise. The window copies themselves are
``kh * kw`` block copies rather than one 6-D transposed copy, and a
block that lies wholly in the zero padding is never gathered or
scattered.

Layers only read their parameter arrays. During ``wingcp.model.train``
those arrays are views of one flat float64 buffer, which the Adam step
updates in place.
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

    def backward(self, dy, cache, need_dx=True):
        pos = cache
        return (np.where(pos, dy, self.slope * dy) if need_dx else None), []


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

    def backward(self, dy, cache, need_dx=True):
        x = cache
        dw = x.T @ dy
        db = dy.sum(axis=0)
        return (dy @ self.w.T if need_dx else None), [dw, db]


class Conv2d:
    """Non-overlapping 2D convolution (stride = kernel), a patchify.

    Kernels (out_ch, in_ch, kh, kw), x (B, C, H, W). Each output cell is
    one (kh, kw) window, so forward and backward are single matrix
    products with the (C*kh*kw, B*ho*wo) window matrix of the input.
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

    def _padded(self, x, zeros=False):
        """An empty (or zero) array laid out like ``x`` zero-padded (bottom/right) to the kernel.

        Without padding that is x's own layout. With padding it is
        np.pad's: Fortran order for an input that is F- and not
        C-contiguous, C order otherwise.
        """
        kh, kw = self.k.shape[2], self.k.shape[3]
        b, c, h, w = x.shape
        if h >= kh and w >= kw:
            return np.zeros_like(x) if zeros else np.empty_like(x)
        new = np.zeros if zeros else np.empty
        return new((b, c, max(h, kh), max(w, kw)), order="F" if x.flags.fnc else "C")

    def _windows(self, xp):
        """View (B, C, ho, kh, wo, kw) of the whole windows of a padded input."""
        kh, kw = self.k.shape[2], self.k.shape[3]
        b, c, h, w = xp.shape
        ho, wo = h // kh, w // kw
        return xp[:, :, : ho * kh, : wo * kw].reshape(b, c, ho, kh, wo, kw)

    def _block(self, i, j, ho, wo):
        """Index of the input cells at kernel offset (i, j) of every window, (B, C, ho, wo)."""
        kh, kw = self.k.shape[2], self.k.shape[3]
        return np.s_[:, :, i : ho * kh : kh, j : wo * kw : kw]

    @staticmethod
    def output_shape(in_shape, out_ch, kernel):
        c, h, w = in_shape
        return (out_ch, max(h, kernel[0]) // kernel[0], max(w, kernel[1]) // kernel[1])

    def forward(self, x):
        o, c, kh, kw = self.k.shape
        b, _, h, w = x.shape
        ho, wo = max(h, kh) // kh, max(w, kw) // kw
        # tensordot's window matrix: a view of the (padded) input where the reshape allows one,
        # else a C-contiguous copy, gathered block by block with zero blocks for the padding
        xp = x if h >= kh and w >= kw else self._padded(x)
        cols = _view(self._windows(xp).transpose(1, 3, 5, 0, 2, 4), (c * kh * kw, b * ho * wo))
        if cols is None:
            xp = None
            cols = np.empty((c, kh, kw, b, ho, wo))
            for i in range(kh):
                for j in range(kw):
                    if i < h and j < w:
                        cols[:, i, j] = x[self._block(i, j, ho, wo)].transpose(1, 0, 2, 3)
                    else:
                        cols[:, i, j] = 0.0
            cols = cols.reshape(c * kh * kw, b * ho * wo)
        elif xp is not x:  # cols views the padded input: fill it
            xp.fill(0.0)
            xp[:, :, :h, :w] = x
        out = np.dot(self.k.reshape(o, -1), cols).reshape(o, b, ho, wo)
        return out.transpose(1, 0, 2, 3) + self.b[None, :, None, None], (x, xp, cols)

    def backward(self, dy, cache, need_dx=True):
        x, xp, cols = cache
        o, c, kh, kw = self.k.shape
        b, _, h, w = x.shape
        _, _, ho, wo = dy.shape
        ckk, n = cols.shape
        # dk's operand is the window matrix transposed: tensordot's view, or a C-contiguous copy
        cols_t = None if xp is None else _view(self._windows(xp).transpose(0, 2, 4, 1, 3, 5), (n, ckk))
        if cols_t is None:
            cols_t = cols.T.copy()
        dk = np.dot(dy.transpose(1, 0, 2, 3).reshape(o, n), cols_t).reshape(self.k.shape)
        db = dy.sum(axis=(0, 2, 3))
        if not need_dx:
            return None, [dk, db]
        dwin = np.dot(dy.transpose(0, 2, 3, 1).reshape(n, o), self.k.reshape(o, ckk))
        dwin = dwin.reshape(b, ho, wo, c, kh, kw)
        dxp = self._padded(x, zeros=ho * kh < h or wo * kw < w)  # zero where no window reaches
        for i in range(min(kh, h)):
            for j in range(min(kw, w)):
                dxp[self._block(i, j, ho, wo)] = dwin[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return dxp[:, :, :h, :w], [dk, db]


def _view(a, shape):
    """``a.reshape(shape)`` if that reshape is a view of ``a``, else None."""
    try:
        return a.reshape(shape, copy=False)
    except ValueError:
        return None


class Flatten:
    def __init__(self):
        self.params = []

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, need_dx=True):
        return (dy.reshape(cache) if need_dx else None), []


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
