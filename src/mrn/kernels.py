"""Hot numeric kernels: 2-D convolution forward/backward in numpy.

Both kernels operate on pre-padded inputs and compute a "valid"
correlation; padding is the caller's job. ``autodiff.conv2d`` looks them up
through this module at call time.

Array conventions: images are (B, C, H, W), weights (O, C, kh, kw), all
float64.
"""

import numpy as np

# mrnbench/run.py's facts line reads this to name the conv backend
HAVE_NUMBA = False


def conv2d_forward(xp, w):
    # windows: (B, C, Ho, Wo, kh, kw)
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return np.einsum("bcijuv,ocuv->boij", win, w, optimize=True)


def conv2d_backward(xp, w, gy, need_gx=True, need_gw=True):
    """(gxp, gw): gradients w.r.t. the padded input and the weights.

    A gradient not asked for is returned as None and never computed.
    """
    o, c, kh, kw = w.shape
    bsz, _, ho, wo = gy.shape
    gxp = gw = None
    if need_gw:
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw),
                                                       axis=(2, 3))
        gw = np.einsum("boij,bcijuv->ocuv", gy, win, optimize=True)
    if need_gx:
        # one matmul gives every tap's (C, Ho, Wo) contribution per example;
        # col2im adds each tap's block at its (u, v) shift
        cols = (w.reshape(o, c * kh * kw).T @ gy.reshape(bsz, o, ho * wo)) \
            .reshape(bsz, c, kh, kw, ho, wo)
        gxp = np.zeros_like(xp)
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, u:u + ho, v:v + wo] += cols[:, :, u, v]
    return gxp, gw
