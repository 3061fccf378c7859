"""Hot numeric kernels: 2-D convolution forward/backward in numpy.

Both kernels operate on pre-padded inputs and compute a "valid"
correlation; padding is the caller's job. ``autodiff.conv_tanh_pool`` (the
CNN's conv stage) and ``autodiff.conv2d`` (its reference) look them up
through this module at call time. The stage keeps no padded input: its
backward pads again before calling ``conv2d_backward``.

Array conventions: images are (B, C, H, W), weights (O, C, kh, kw), all
float64.
"""

import numpy as np

# mrnbench/run.py's facts line reads this to name the conv backend
HAVE_NUMBA = False


def _im2col(xp, kh, kw):
    """(n, C*kh*kw, Ho*Wo) columns: every kh x kw window of xp, in (c, u, v)
    order to match w.reshape(O, -1); one strided copy per tap.
    """
    bsz, c, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    cols = np.empty((bsz, c, kh, kw, ho, wo))
    for u in range(kh):
        for v in range(kw):
            cols[:, :, u, v] = xp[:, :, u:u + ho, v:v + wo]
    return cols.reshape(bsz, c * kh * kw, ho * wo)


def conv2d_forward(xp, w):
    o, _, kh, kw = w.shape
    bsz, _, hp, wp = xp.shape
    y = w.reshape(o, -1) @ _im2col(xp, kh, kw)
    return y.reshape(bsz, o, hp - kh + 1, wp - kw + 1)


def conv2d_backward(xp, w, gy, need_gx=True, need_gw=True):
    """(gxp, gw): gradients w.r.t. the padded input and the weights.

    A gradient not asked for is returned as None and never computed.
    """
    o, c, kh, kw = w.shape
    bsz, _, ho, wo = gy.shape
    gy = gy.reshape(bsz, o, ho * wo)
    gxp = gw = None
    if need_gw:
        # the transpose is a view: matmul hands it to BLAS as transposed
        gw = (gy @ _im2col(xp, kh, kw).transpose(0, 2, 1)).sum(axis=0) \
            .reshape(w.shape)
    if need_gx:
        # one matmul gives every tap's (C, Ho, Wo) contribution per example;
        # col2im adds each tap's block at its (u, v) shift
        cols = (w.reshape(o, c * kh * kw).T @ gy) \
            .reshape(bsz, c, kh, kw, ho, wo)
        gxp = np.zeros_like(xp)
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, u:u + ho, v:v + wo] += cols[:, :, u, v]
    return gxp, gw
