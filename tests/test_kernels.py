import numpy as np
import pytest

from mrn import autodiff as ad
from mrn import kernels
from mrn.autodiff import Tensor
from mrn.encoders import CnnConfig

CNN = CnnConfig()
# (B, C, O): both CNN layers' channel counts at the default config
LAYERS = [(3, CNN.in_channels, CNN.channels1),
          (2, CNN.channels1, CNN.channels2)]


def rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_forward_matches_direct_sum():
    rng = np.random.default_rng(2)
    xp = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    y = kernels.conv2d_forward(xp, w)
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
    y = kernels.conv2d_forward(xp, w)
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
    gxp, gw = kernels.conv2d_backward(xp, w, gy)
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
    # more examples than one CNN run: one column buffer holds them all
    bsz = 11
    rng = np.random.default_rng(20)
    xp = rng.standard_normal((bsz, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3))
    gy = rng.standard_normal((bsz, 4, 4, 3))
    y = kernels.conv2d_forward(xp, w)
    _, gw = kernels.conv2d_backward(xp, w, gy, need_gx=False)
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
    gy = rng.standard_normal((bsz, o, 4, 4))
    gxp, gw = kernels.conv2d_backward(xp, w, gy)
    gx_only, none_w = kernels.conv2d_backward(xp, w, gy, need_gw=False)
    none_x, gw_only = kernels.conv2d_backward(xp, w, gy, need_gx=False)
    assert none_w is None and none_x is None
    # skipping one gradient leaves the other bit-identical
    assert np.array_equal(gx_only, gxp) and np.array_equal(gw_only, gw)
    assert kernels.conv2d_backward(xp, w, gy, False, False) == (None, None)


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
