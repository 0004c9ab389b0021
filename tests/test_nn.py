import numpy as np
import pytest

from oracles import (
    loop_conv2d_backward,
    loop_conv2d_forward,
    rel_err,
    stacked_batch,
    tensordot_conv2d_backward,
    tensordot_conv2d_forward,
)

from wingcp.data import GROUP_SHAPES
from wingcp.model import build_model, input_shapes, preset
from wingcp import nn
from wingcp.nn import ChannelFlatten, Conv2d, Dense, LeakyReLU, conv_stack, dense_stack

# (input shape (C, H, W), out-channels) of every conv layer of the presets;
# (2, 1, 1) pads both spatial dims
PRESET_CONV_LAYERS = [
    ((1, 9, 3), 4),
    ((4, 4, 1), 8),
    ((8, 2, 1), 16),
    ((1, 18, 2), 4),
    ((2, 18, 2), 4),
    ((4, 9, 1), 8),
    ((8, 4, 1), 16),
    ((1, 2, 2), 4),
    ((2, 2, 2), 4),
    ((4, 1, 1), 8),
    ((8, 1, 1), 16),
    ((2, 1, 1), 3),
]
# presets have one output column; this has three, and a remainder row and column
WIDE_CONV_LAYER = ((3, 5, 7), 2)
LOOP_REL_TOL = 1e-13
# one sample, a mini-batch remainder, the default validation split, train batch, training set and whole cache
BATCH_SIZES = (1, 32, 108, 470, 972, 1080)
# (in_shape, out_ch, batch) whose weight gradient, taken whole, rounds differently at one and at two
# OpenBLAS threads: (8, 4, 1) -> 16 at 1080 is a 16 x 2160 x 32 product, its inner dimension past
# OpenBLAS's K block. The layer takes it in column blocks, which round the same at any thread count,
# so no bit pattern of the whole product is the layer's to match.
WHOLE_DK_DEPENDS_ON_THREADS = {((8, 4, 1), 16, 1080)}


def drawn(rng, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a layer or stack laid out with zeros, with its initial weights drawn from ``rng``."""
    layer = make(*args, **kwargs)
    layer.init(rng)
    return layer


def channel_major(a):
    """``a`` (B, C, H, W) as the C-contiguous (C, B, H, W) array a conv layer takes and hands on."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


def batch_major(a):
    """The (B, C, H, W) view of a (C, B, H, W) array, or the (C, B, H, W) view of a (B, C, H, W) one."""
    return a.transpose(1, 0, 2, 3)


class TestConv2d:
    def test_output_shape_18x2(self):
        # floor((18-2)/2)+1 = 9 rows, floor((2-2)/2)+1 = 1 column
        rng = np.random.default_rng(0)
        conv = drawn(rng, Conv2d.zeros, in_ch=1, out_ch=4)
        out, _ = conv.forward(rng.normal(size=(1, 3, 18, 2)))
        assert out.shape == (4, 3, 9, 1)

    def test_output_shape_9x3(self):
        rng = np.random.default_rng(0)
        conv = drawn(rng, Conv2d.zeros, in_ch=1, out_ch=4)
        out, _ = conv.forward(rng.normal(size=(1, 2, 9, 3)))
        assert out.shape == (4, 2, 4, 1)

    def test_zero_kernels_zero_output(self):
        conv = Conv2d(np.zeros((4, 1, 2, 2)), np.zeros(4))
        out, _ = conv.forward(np.random.default_rng(1).normal(size=(1, 2, 6, 4)))
        np.testing.assert_array_equal(out, 0.0)

    def test_identity_kernel_constant_input(self):
        k = np.zeros((1, 1, 2, 2))
        k[0, 0, 0, 0] = 1.0
        conv = Conv2d(k, np.zeros(1))
        out, _ = conv.forward(np.full((1, 1, 4, 4), 3.5))
        np.testing.assert_allclose(out, 3.5)

    def test_small_dim_zero_padded(self):
        rng = np.random.default_rng(2)
        conv = drawn(rng, Conv2d.zeros, in_ch=2, out_ch=3)
        out, _ = conv.forward(rng.normal(size=(2, 2, 1, 1)))  # both dims < kernel
        assert out.shape == (3, 2, 1, 1)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(3)
        conv = drawn(rng, Conv2d.zeros, in_ch=2, out_ch=3)
        x = rng.normal(size=(2, 2, 5, 3))  # (C, B, H, W)
        target = rng.normal(size=conv.forward(x)[0].shape)

        def loss(xx):
            out, _ = conv.forward(xx)
            return 0.5 * np.sum((out - target) ** 2)

        out, cache = conv.forward(x)
        dx, (dk, db) = conv.backward(out - target, cache)
        h = 1e-6
        for arr, grad in ((x, dx), (conv.k, dk), (conv.b, db)):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(0, flat.size, max(1, flat.size // 15)):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss(x)
                flat[i] = orig - h
                lm = loss(x)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert fd == pytest.approx(gflat[i], rel=1e-5, abs=1e-7)


def conv_case(in_shape, out_ch, batch):
    """A Conv2d with random bias, a C-order (B, C, H, W) input and a C-order output gradient for it."""
    rng = np.random.default_rng([batch, *in_shape, out_ch])
    conv = drawn(rng, Conv2d.zeros, in_shape[0], out_ch)
    conv.b = rng.normal(size=out_ch)
    x = rng.normal(size=(batch,) + in_shape)
    dy = rng.normal(size=(batch,) + Conv2d.output_shape(in_shape, out_ch, conv.k.shape[2:]))
    return conv, x, dy


def conv_pass(conv, x, dy):
    """(out, dx, dk, db) of the conv on (C, B, H, W) ``x`` and ``dy``; out and dx are (C, B, H, W) too."""
    out, cache = conv.forward(x)
    dx, (dk, db) = conv.backward(dy, cache)
    return out, dx, dk, db


class TestConvLoopReference:
    """The patchify Conv2d against the per-position loops of tests/oracles.py."""

    @pytest.mark.parametrize("in_shape,out_ch", PRESET_CONV_LAYERS + [WIDE_CONV_LAYER])
    def test_matches_loops(self, in_shape, out_ch):
        """Every batch size, with the input and output gradient channel-major and in batch-major memory."""
        for batch in BATCH_SIZES:
            conv, x, dy = conv_case(in_shape, out_ch, batch)
            ref_out = loop_conv2d_forward(conv.k, conv.b, x)
            ref_dx, ref_dk, ref_db = loop_conv2d_backward(conv.k, x, dy)
            for layout, xs, dys in (("c-order", batch_major(x), batch_major(dy)),
                                    ("channel-major", channel_major(x), channel_major(dy))):
                out, dx, dk, db = conv_pass(conv, xs, dys)
                for g, ref in zip((batch_major(out), batch_major(dx), dk, db), (ref_out, ref_dx, ref_dk, ref_db)):
                    assert g.shape == ref.shape, (batch, layout)
                    assert np.max(rel_err(g, ref, floor=1.0)) <= LOOP_REL_TOL, (batch, layout)

    def test_covers_every_preset_layer(self):
        for name in ("rgfil", "mdf", "mtl", "mlp"):
            cfg = preset(name)
            shapes = input_shapes(cfg.neighbor_mode)
            for z, spec in cfg.nets.items():
                if spec.kind != "conv":
                    continue
                shape = shapes[z]
                for out_ch in spec.channels:
                    assert (shape, out_ch) in PRESET_CONV_LAYERS
                    shape = Conv2d.output_shape(shape, out_ch, spec.kernel)


class TestConvLayout:
    """A conv call's bits depend on the values it gets, not on their memory layout."""

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("in_shape,out_ch", PRESET_CONV_LAYERS + [WIDE_CONV_LAYER])
    def test_layout_independent(self, in_shape, out_ch, batch):
        conv, x, dy = conv_case(in_shape, out_ch, batch)
        got = conv_pass(conv, batch_major(x), batch_major(dy))
        for g, want in zip(got, conv_pass(conv, channel_major(x), channel_major(dy))):
            assert g.shape == want.shape
            assert g.tobytes() == want.tobytes()



class TestConvTensordotBits:
    """Conv2d against np.tensordot over a C-contiguous window tensor, bit for bit.

    OpenBLAS rounds a product differently for a C- or an F-contiguous
    operand, so equal bits here mean every product got the one operand
    layout of the oracle, whatever the input's layout ("c-order": a
    (C, B, H, W) view of C-order (B, C, H, W) memory). The output is the
    oracle's (O, B, ho, wo) product itself, and the output and dx are
    C-contiguous channel-major, so the next layer gets the same operands
    too. At 972 and 1080 the forward product is taken in column blocks
    (``nn._matmul``), so equal bits there also mean the blocks sum each
    output element as the whole product does.
    """

    @pytest.mark.parametrize("layout", ["c-order", "channel-major"])
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("in_shape,out_ch", PRESET_CONV_LAYERS + [WIDE_CONV_LAYER])
    def test_bitwise_equal(self, in_shape, out_ch, batch, layout):
        conv, x, dy = conv_case(in_shape, out_ch, batch)
        to_conv = channel_major if layout == "channel-major" else batch_major
        out, dx, dk, db = conv_pass(conv, to_conv(x), to_conv(dy))
        ref_out, ref_cache = tensordot_conv2d_forward(conv.k, conv.b, x)
        ref_dx, ref_dk, ref_db = tensordot_conv2d_backward(conv.k, ref_cache, dy)
        exact = [(batch_major(out), ref_out), (batch_major(dx), ref_dx), (db, ref_db)]
        if (in_shape, out_ch, batch) in WHOLE_DK_DEPENDS_ON_THREADS:
            assert dk.shape == ref_dk.shape
            assert np.max(rel_err(dk, ref_dk, floor=1.0)) <= LOOP_REL_TOL
        else:
            exact.append((dk, ref_dk))
        for got, ref in exact:
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert out.flags.c_contiguous and dx.flags.c_contiguous

    @pytest.mark.parametrize("in_shape,out_ch", PRESET_CONV_LAYERS + [WIDE_CONV_LAYER])
    def test_without_input_gradient(self, in_shape, out_ch):
        conv, x, dy = conv_case(in_shape, out_ch, 5)
        x, dy = channel_major(x), channel_major(dy)
        _, cache = conv.forward(x)
        _, (dk, db) = conv.backward(dy, cache)
        none, (dk2, db2) = conv.backward(dy, cache, need_dx=False)
        assert none is None
        assert dk2.tobytes() == dk.tobytes() and db2.tobytes() == db.tobytes()


class TestDense:
    def test_forward_affine(self):
        layer = Dense(np.array([[2.0], [1.0]]), np.array([0.5]))
        out, _ = layer.forward(np.array([[1.0, 3.0]]))
        np.testing.assert_allclose(out, [[5.5]])

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(4)
        layer = drawn(rng, Dense.zeros, 3, 2)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))
        out, cache = layer.forward(x)
        dx, (dw, db) = layer.backward(out - target, cache)
        h = 1e-6
        for arr, grad in ((layer.w, dw), (layer.b, db), (x, dx)):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = 0.5 * np.sum((layer.forward(x)[0] - target) ** 2)
                flat[i] = orig - h
                lm = 0.5 * np.sum((layer.forward(x)[0] - target) ** 2)
                flat[i] = orig
                assert (lp - lm) / (2 * h) == pytest.approx(gflat[i], rel=1e-5, abs=1e-8)

    def test_forward_is_matmul_plus_bias_bitwise(self):
        rng = np.random.default_rng(11)
        layer = drawn(rng, Dense.zeros, 7, 5)
        layer.b = rng.normal(size=5)
        x = rng.normal(size=(9, 7))
        assert layer.forward(x)[0].tobytes() == (x @ layer.w + layer.b).tobytes()


class TestMatmul:
    """Products from ``_BLAS_SPLIT`` on run in blocks that OpenBLAS keeps on one thread, unless wide and tall."""

    @staticmethod
    def spy_blocks(monkeypatch):
        blocks, real = [], np.matmul

        def spy(a, b, out=None):
            blocks.append(a.shape + (b.shape[1],))
            return real(a, b, out=out)

        monkeypatch.setattr(nn.np, "matmul", spy)
        return blocks

    # rgfil's context layer forward at train, eval and predict batches, its weight
    # gradient x.T @ dy, and a one-column output
    @pytest.mark.parametrize("m,k,n,a_transposed", [
        (470, 147, 16, False), (1080, 147, 16, False), (147, 470, 16, True), (4000, 300, 1, False),
    ])
    def test_narrow_in_blocks_below_split(self, monkeypatch, m, k, n, a_transposed):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(k, m)).T if a_transposed else rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        blocks = self.spy_blocks(monkeypatch)
        got = nn._matmul(a, b)
        assert len(blocks) > 1
        assert all(r * kb * nb < nn._BLAS_SPLIT and (kb, nb) == (k, n) for r, kb, nb in blocks)
        assert sum(r for r, _, _ in blocks) == m
        exact = a.astype(np.longdouble) @ b.astype(np.longdouble)
        assert np.max(rel_err(got, exact, floor=1.0)) <= LOOP_REL_TOL

    @pytest.mark.parametrize("m,k,n", [(216, 128, 128), (30, 147, 33), (20, 147, 16)])
    def test_wide_or_small_is_matmul(self, monkeypatch, m, k, n):
        rng = np.random.default_rng(14)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        blocks = self.spy_blocks(monkeypatch)
        assert nn._matmul(a, b).tobytes() == (a @ b).tobytes()
        assert blocks == [(m, k, n)]

    # conv forward k @ cols of rgfil's x2 and x3/x4 stacks at predict's batch, and the 16 x 2160 x 32
    # weight gradient of (8, 4, 1) -> 16 at batch 1080; the output's rows stay whole
    @pytest.mark.parametrize("m,k,n", [(8, 16, 4320), (16, 32, 1080), (16, 32, 2160), (16, 2160, 32)])
    def test_short_in_column_blocks_below_split(self, monkeypatch, m, k, n):
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        blocks = self.spy_blocks(monkeypatch)
        got = nn._matmul(a, b)
        assert len(blocks) > 1
        assert all(mb * kb * c < nn._BLAS_SPLIT and (mb, kb) == (m, k) for mb, kb, c in blocks)
        assert [c % nn._TILE for _, _, c in blocks[:-1]] == [0] * (len(blocks) - 1)
        assert sum(c for _, _, c in blocks) == n
        exact = a.astype(np.longdouble) @ b.astype(np.longdouble)
        assert np.max(rel_err(got, exact, floor=1.0)) <= LOOP_REL_TOL

    # rgfil's 40-wide context head at the first batch past the split and at twice the most rows
    # below it, plus one; conv forward products at twice a column block, plus one. The column cases
    # exceed OpenBLAS's small-matrix size with a ragged edge tile, where blocks need not give the
    # whole product's last bit.
    @pytest.mark.parametrize("m,k,n,whole_bits", [
        (820, 16, 40, True), (1639, 16, 40, True), (16, 32, 2033, False), (8, 16, 8177, False),
    ])
    def test_no_block_of_one_row_or_column(self, monkeypatch, m, k, n, whole_bits):
        """numpy hands a one-row or one-column product to gemv, which sums in another order."""
        rng = np.random.default_rng(16)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        blocks = self.spy_blocks(monkeypatch)
        got = nn._matmul(a, b)
        assert len(blocks) > 1
        assert all(mb > 1 and c > 1 and mb * kb * c < nn._BLAS_SPLIT for mb, kb, c in blocks)
        exact = a.astype(np.longdouble) @ b.astype(np.longdouble)
        assert np.max(rel_err(got, exact, floor=1.0)) <= LOOP_REL_TOL
        if whole_bits:
            assert got.tobytes() == np.matmul(a, b).tobytes()

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("name", ("rgfil", "mdf", "mtl", "mlp"))
    def test_model_products(self, monkeypatch, name, batch):
        """Every product of a forward and a training step reaches BLAS below the split, mlp's 128-wide ones whole."""
        model = build_model(preset(name, seed=3))
        rng = np.random.default_rng(batch)
        groups = {key: rng.normal(size=(batch, *shape)) for key, shape in GROUP_SHAPES.items()}
        inputs = model.inputs(stacked_batch(y=rng.normal(size=batch), **groups))
        products = []
        real_product, real_matmul = nn._matmul, np.matmul

        def product(a, b):
            products.append((a.shape + (b.shape[1],), []))
            return real_product(a, b)

        def matmul(a, b, out=None):
            assert products, "a product made outside nn._matmul"
            products[-1][1].append(a.shape + (b.shape[1],))
            return real_matmul(a, b, out=out)

        monkeypatch.setattr(nn, "_matmul", product)
        monkeypatch.setattr(nn.np, "matmul", matmul)
        model.forward(inputs)
        model.loss_and_grads(inputs)
        monkeypatch.undo()
        assert products and all(calls for _, calls in products)
        for (m, k, n), calls in products:
            if name == "mlp" and n == 128:
                assert calls == [(m, k, n)]
            else:
                assert all(mb * kb * nb < nn._BLAS_SPLIT for mb, kb, nb in calls), (m, k, n, calls)
        if name == "mlp" and batch >= 32:
            assert any(n == 128 and m * k * n >= nn._BLAS_SPLIT for (m, k, n), _ in products)


# signed zeros, subnormals, the largest finite values and a nan
SPECIAL_INPUTS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, -1.0, np.nan])


class TestLeakyReLU:
    @pytest.mark.parametrize("slope", [0.01, 0.0, 1.0, 0.5])  # ModelConfig admits [0, 1]
    def test_forward_equals_where_bitwise(self, slope):
        x = np.concatenate([SPECIAL_INPUTS, np.random.default_rng(12).normal(size=200)])
        out, cache = LeakyReLU(slope).forward(x)
        want = np.where(x > 0.0, x, slope * x)
        assert out.tobytes() == want.tobytes()
        assert cache is out

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0, 0, 1])  # ModelConfig admits the ints too
    def test_backward_equals_where_bitwise(self, slope):
        """max(y > 0, slope) * dy is the masked select on x, for every pair of special values."""
        rng = np.random.default_rng(15)
        n = SPECIAL_INPUTS.size
        x = np.concatenate([np.repeat(SPECIAL_INPUTS, n), rng.normal(size=200)])
        dy = np.concatenate([np.tile(SPECIAL_INPUTS, n), rng.normal(size=200)])
        layer = LeakyReLU(slope)
        _, cache = layer.forward(x)
        dx, grads = layer.backward(dy, cache)
        want = np.where(x > 0, dy, slope * dy)
        assert grads == [] and dx.dtype == np.float64
        assert dx.tobytes() == want.tobytes()

    def test_forward_values(self):
        layer = LeakyReLU(0.01)
        out, _ = layer.forward(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(out, [-0.02, 0.0, 3.0])

    def test_backward_slopes(self):
        layer = LeakyReLU(0.01)
        _, cache = layer.forward(np.array([-1.0, 2.0]))
        dx, _ = layer.backward(np.array([1.0, 1.0]), cache)
        np.testing.assert_allclose(dx, [0.01, 1.0])


class TestStacks:
    def test_dense_stack_shapes(self):
        rng = np.random.default_rng(5)
        stack = drawn(rng, dense_stack, in_dim=7, widths=(16, 16, 16), out_dim=8)
        out, _ = stack.forward(rng.normal(size=(3, 7)))
        assert out.shape == (3, 8)
        # 4 Dense layers, 2 params each
        assert len(stack.params) == 8

    def test_conv_stack_on_stencil_metric_block(self):
        rng = np.random.default_rng(6)
        stack = drawn(rng, conv_stack, in_shape=(1, 18, 2), channels=(4, 8, 16), out_dim=8)
        out, _ = stack.forward(rng.normal(size=(1, 2, 18, 2)))
        assert out.shape == (2, 8)

    def test_conv_stack_on_single_metric(self):
        rng = np.random.default_rng(7)
        stack = drawn(rng, conv_stack, in_shape=(1, 2, 2), channels=(4, 8, 16), out_dim=8)
        out, _ = stack.forward(rng.normal(size=(1, 5, 2, 2)))
        assert out.shape == (5, 8)

    def test_backward_returns_parameter_gradients(self):
        """Stack.backward gives each layer's own parameter gradients, bit for bit, in params order."""
        rng = np.random.default_rng(9)
        stack = drawn(rng, conv_stack, in_shape=(2, 18, 2), channels=(4, 8), out_dim=3)
        out, caches = stack.forward(rng.normal(size=(2, 6, 18, 2)))
        dy = rng.normal(size=out.shape)
        grads = stack.backward(dy, caches)
        want = []
        for layer, cache in zip(reversed(stack.layers), reversed(caches)):
            dy, g = layer.backward(dy, cache)
            want[:0] = g
        assert len(grads) == len(want) == len(stack.params)
        for got, ref, p in zip(grads, want, stack.params):
            assert got.shape == p.shape
            assert got.tobytes() == ref.tobytes()

    def test_forward_without_caches(self):
        rng = np.random.default_rng(10)
        stack = drawn(rng, conv_stack, in_shape=(1, 9, 3), channels=(4, 8), out_dim=2)
        x = rng.normal(size=(1, 4, 9, 3))
        out, caches = stack.forward(x)
        bare, none = stack.forward(x, keep=False)
        assert none is None and len(caches) == len(stack.layers)
        assert bare.tobytes() == out.tobytes()

    def test_flatten_round_trip(self):
        flat = ChannelFlatten()
        x = np.arange(24.0).reshape(3, 2, 4)  # (C, B, W)
        out, cache = flat.forward(x)
        assert out.shape == (2, 12) and out.flags.c_contiguous
        np.testing.assert_array_equal(out, x.transpose(1, 0, 2).reshape(2, 12))
        dx, _ = flat.backward(out, cache)
        assert dx.flags.c_contiguous
        np.testing.assert_array_equal(dx, x)
