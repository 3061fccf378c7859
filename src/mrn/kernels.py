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


# examples per im2col buffer: whole-batch columns for conv1 at batch 32 take
# 7 MB per call and raised the training peak RSS; 8-example buffers (1.8 MB)
# run as fast without that
IM2COL_EXAMPLES = 8


def _im2col(xp, kh, kw):
    """(first example, columns) for each run of IM2COL_EXAMPLES examples.

    The columns are (n, C*kh*kw, Ho*Wo): every kh x kw window of those rows
    of xp, in (c, u, v) order to match w.reshape(O, -1); one strided copy
    per tap.
    """
    bsz, c, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    for start in range(0, bsz, IM2COL_EXAMPLES):
        part = xp[start:start + IM2COL_EXAMPLES]
        cols = np.empty((part.shape[0], c, kh, kw, ho, wo))
        for u in range(kh):
            for v in range(kw):
                cols[:, :, u, v] = part[:, :, u:u + ho, v:v + wo]
        yield start, cols.reshape(part.shape[0], c * kh * kw, ho * wo)


def conv2d_forward(xp, w):
    o, _, kh, kw = w.shape
    bsz, _, hp, wp = xp.shape
    ho, wo = hp - kh + 1, wp - kw + 1
    y = np.empty((bsz, o, ho * wo))
    for start, cols in _im2col(xp, kh, kw):
        np.matmul(w.reshape(o, -1), cols,
                  out=y[start:start + IM2COL_EXAMPLES])
    return y.reshape(bsz, o, ho, wo)


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
        gw = np.zeros((o, c * kh * kw))
        for start, cols in _im2col(xp, kh, kw):
            gw += (gy[start:start + IM2COL_EXAMPLES]
                   @ cols.transpose(0, 2, 1)).sum(axis=0)
        gw = gw.reshape(w.shape)
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
