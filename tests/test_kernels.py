import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrn import autodiff as ad
from mrn import encoders, kernels
from mrn.autodiff import Tensor
from mrn.encoders import CnnConfig

CNN = CnnConfig()
# (B, C, O): both CNN layers' channel counts at the default config
LAYERS = [(3, CNN.in_channels, CNN.channels1),
          (2, CNN.channels1, CNN.channels2)]


def rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def valid(y, kw):
    """The valid columns of a kernel's (B, O, Ho, Wp) grid."""
    return y[..., :y.shape[3] - kw + 1]


def on_grid(gy, kw):
    """gy (B, O, Ho, Wo) zero-padded onto the grid's junk columns."""
    grid = np.zeros(gy.shape[:3] + (gy.shape[3] + kw - 1,))
    grid[..., :gy.shape[3]] = gy
    return grid


def test_forward_matches_direct_sum():
    rng = np.random.default_rng(2)
    xp = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    y = valid(kernels.conv2d_forward(xp, w), 3)
    expect = np.zeros((1, 3, 3, 3))
    for o in range(3):
        for i in range(3):
            for j in range(3):
                expect[0, o, i, j] = np.sum(xp[0, :, i:i + 3, j:j + 3] * w[o])
    assert np.max(np.abs(y - expect)) < 1e-12


@pytest.mark.parametrize("bsz,c,o", LAYERS)
def test_forward_matches_direct_sum_per_layer(bsz, c, o):
    rng = np.random.default_rng(10 + c)
    xp = rng.standard_normal((bsz, c, 7, 6))
    w = rng.standard_normal((o, c, 3, 3))
    y = valid(kernels.conv2d_forward(xp, w), 3)
    expect = np.zeros((bsz, o, 5, 4))
    for b in range(bsz):
        for k in range(o):
            for i in range(5):
                for j in range(4):
                    expect[b, k, i, j] = np.sum(xp[b, :, i:i + 3, j:j + 3]
                                                * w[k])
    assert y.shape == expect.shape
    assert rel(y, expect) < 1e-12


@pytest.mark.parametrize("bsz,c,o", LAYERS)
def test_backward_matches_direct_sums(bsz, c, o):
    rng = np.random.default_rng(c)
    xp = rng.standard_normal((bsz, c, 7, 6))
    w = rng.standard_normal((o, c, 3, 3))
    gy = rng.standard_normal((bsz, o, 5, 4))
    gxp, gw = kernels.conv2d_backward(xp, w, on_grid(gy, 3))
    expect_gx = np.zeros_like(xp)
    expect_gw = np.zeros_like(w)
    for b in range(bsz):
        for k in range(o):
            for i in range(5):
                for j in range(4):
                    expect_gx[b, :, i:i + 3, j:j + 3] += gy[b, k, i, j] * w[k]
                    expect_gw[k] += gy[b, k, i, j] * xp[b, :, i:i + 3, j:j + 3]
    assert rel(gxp, expect_gx) < 1e-12
    assert rel(gw, expect_gw) < 1e-12


def test_batch_spanning_im2col_buffers_matches_direct_sums():
    # more examples than one CNN run: the forward's column buffer and the
    # backward's batched GEMMs hold them all
    bsz = 11
    rng = np.random.default_rng(20)
    xp = rng.standard_normal((bsz, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    gy = rng.standard_normal((bsz, 4, 4, 3))
    y = valid(kernels.conv2d_forward(xp, w), 3)
    _, gw = kernels.conv2d_backward(xp, w, on_grid(gy, 3), need_gx=False)
    expect_y = np.zeros_like(y)
    expect_gw = np.zeros_like(w)
    for b in range(bsz):
        for k in range(4):
            for i in range(4):
                for j in range(3):
                    win = xp[b, :, i:i + 3, j:j + 3]
                    expect_y[b, k, i, j] = np.sum(win * w[k])
                    expect_gw[k] += gy[b, k, i, j] * win
    assert rel(y, expect_y) < 1e-12
    assert rel(gw, expect_gw) < 1e-12


@pytest.mark.parametrize("bsz,c,o", LAYERS)
def test_backward_skips_gradients_not_asked_for(bsz, c, o):
    rng = np.random.default_rng(o)
    xp = rng.standard_normal((bsz, c, 6, 6))
    w = rng.standard_normal((o, c, 3, 3))
    gy = on_grid(rng.standard_normal((bsz, o, 4, 4)), 3)
    gxp, gw = kernels.conv2d_backward(xp, w, gy)
    gx_only, none_w = kernels.conv2d_backward(xp, w, gy, need_gw=False)
    none_x, gw_only = kernels.conv2d_backward(xp, w, gy, need_gx=False)
    assert none_w is None and none_x is None
    # skipping one gradient leaves the other bit-identical
    assert np.array_equal(gx_only, gxp) and np.array_equal(gw_only, gw)
    assert kernels.conv2d_backward(xp, w, gy, False, False) == (None, None)


@settings(max_examples=60, deadline=None, database=None)
@given(bsz=st.integers(1, 9), c=st.integers(1, 4), o=st.integers(1, 4),
       kh=st.integers(1, 4), kw=st.integers(1, 4), pad=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_grid_kernels_match_direct_sums(bsz, c, o, kh, kw, pad, seed, data):
    h = data.draw(st.integers(max(1, kh - 2 * pad), 9), "h")
    w_ = data.draw(st.integers(max(1, kw - 2 * pad), 9), "w")
    # the kernels take any padded input: its border is random here too, so
    # a tap read from the wrong row of a map cannot meet zeros
    rng = np.random.default_rng(seed)
    xp = rng.standard_normal((bsz, c, h + 2 * pad, w_ + 2 * pad))
    w = rng.standard_normal((o, c, kh, kw))
    ho, wo = h + 2 * pad - kh + 1, w_ + 2 * pad - kw + 1
    gy = rng.standard_normal((bsz, o, ho, wo))
    expect_y = np.zeros((bsz, o, ho, wo))
    expect_gx = np.zeros_like(xp)
    expect_gw = np.zeros_like(w)
    for i in range(ho):
        for j in range(wo):
            win = xp[:, :, i:i + kh, j:j + kw]
            expect_y[:, :, i, j] = np.einsum("bcuv,ocuv->bo", win, w)
            expect_gw += np.einsum("bo,bcuv->ocuv", gy[:, :, i, j], win)
            expect_gx[:, :, i:i + kh, j:j + kw] += np.einsum(
                "bo,ocuv->bcuv", gy[:, :, i, j], w)
    y = kernels.conv2d_forward(xp, w)
    assert y.shape == (bsz, o, ho, xp.shape[3])
    assert rel(valid(y, kw), expect_y) < 1e-12
    grid = on_grid(gy, kw)
    gxp, gw = kernels.conv2d_backward(xp, w, grid)
    assert rel(gxp, expect_gx) < 1e-12
    assert rel(gw, expect_gw) < 1e-12
    # asking for one gradient leaves the other bit-identical
    assert np.array_equal(kernels.conv2d_backward(xp, w, grid, True, False)[0],
                          gxp)
    assert np.array_equal(kernels.conv2d_backward(xp, w, grid, False, True)[1],
                          gw)


def test_conv1_stage_backward_peaks_at_grid_and_padded_input():
    # an 8-image conv1-shaped stage with trainable weights: the backward
    # holds the grid gradient, the padded input and the pool's share of the
    # incoming gradient, and no column buffer (2.54 MiB with im2col columns)
    rng = np.random.default_rng(4)
    n, c, o, side = encoders.CNN_RUN, CNN.in_channels, CNN.channels1, \
        CNN.image_size
    x = Tensor(rng.uniform(0, 1, (n, c, side, side)))
    w = Tensor(0.1 * rng.standard_normal((o, c, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(o), requires_grad=True)
    y = ad.conv_tanh_pool(x, w, b, 1)
    g = rng.standard_normal(y.shape)
    tracemalloc.start()
    try:
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = n * o * side * (side + 2)
    padded = n * c * (side + 2) ** 2
    assert w.grad is not None and b.grad is not None
    assert peak <= 8 * (grid + padded + g.size) + 32 * 2**10


@pytest.mark.parametrize("k", [2, 4])
def test_avgpool_matches_reshape_mean_and_repeat(k):
    rng = np.random.default_rng(k)
    x0 = rng.standard_normal((3, 5, 8, 16))
    g = rng.standard_normal((3, 5, 8 // k, 16 // k))
    x = Tensor(x0, requires_grad=True)
    y = ad.avgpool2d(x, k)
    ad.tsum(ad.mul(y, Tensor(g))).backward()
    expect_y = x0.reshape(3, 5, 8 // k, k, 16 // k, k).mean(axis=(3, 5))
    expect_gx = np.repeat(np.repeat(g, k, axis=2), k, axis=3) / (k * k)
    assert rel(y.data, expect_y) < 1e-12
    assert rel(x.grad, expect_gx) < 1e-12
