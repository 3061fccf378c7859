"""Hot numeric kernels: 2-D convolution forward/backward in numpy.

Both kernels operate on pre-padded inputs and compute a "valid"
correlation; padding is the caller's job. ``autodiff.conv_tanh_pool`` (the
CNN's conv stage) and ``autodiff.conv2d`` (its reference) look them up
through this module at call time. The stage keeps no padded input: its
backward pads again before calling ``conv2d_backward``.

Every product is taken on the *padded-width grid*: each padded (Hp, Wp)
map is one flat row, and output position p = i * Wp + j reads tap (u, v)
at p + u * Wp + v, so a tap's inputs for the whole map are one contiguous
slice. The grid is (Ho, Wp): its last kw - 1 columns are junk, holding
values the forward computes and no caller reads, and the backward requires
the incoming gradient to be zero there. The backward builds no column
buffer: each gradient is kh * kw batched GEMMs over shifted views (the
low-memory GEMM convolution of Anderson et al. 2017).

Array conventions: images are (B, C, H, W), weights (O, C, kh, kw), all
float64.
"""

import numpy as np

# mrnbench/run.py's facts line reads this to name the conv backend
HAVE_NUMBA = False


def _grid(xp, w):
    """(flat xp, grid size Ho * Wp, slice length, (u, v, start) per tap).

    A tap's slice stops after the last valid grid position, so no tap
    reads past the end of a map.
    """
    _, _, kh, kw = w.shape
    bsz, c, hp, wp = xp.shape
    m = (hp - kh + 1) * wp
    starts = [(u, v, u * wp + v) for u in range(kh) for v in range(kw)]
    return xp.reshape(bsz, c, hp * wp), m, m - kw + 1, starts


def conv2d_forward(xp, w):
    """(B, O, Ho, Wp) correlation of xp with w on the padded-width grid.

    The columns are kh * kw contiguous copies, one per tap; where a tap's
    slice would run past the end of a map (junk positions only), they are
    zero.
    """
    o, c, kh, kw = w.shape
    bsz, _, hp, wp = xp.shape
    flat, m, n, starts = _grid(xp, w)
    cols = np.empty((bsz, c, kh, kw, m))
    cols[..., n:] = 0.0
    for u, v, s in starts:
        cols[:, :, u, v, :n] = flat[:, :, s:s + n]
    y = w.reshape(o, -1) @ cols.reshape(bsz, c * kh * kw, m)
    return y.reshape(bsz, o, hp - kh + 1, wp)


def conv2d_backward(xp, w, gy, need_gx=True, need_gw=True):
    """(gxp, gw): gradients w.r.t. the padded input and the weights.

    gy is the (B, O, Ho, Wp) gradient on the grid, zero in its junk
    columns. A gradient not asked for is returned as None and never
    computed.
    """
    bsz, o = gy.shape[:2]
    flat, m, n, starts = _grid(xp, w)
    g = gy.reshape(bsz, o, m)[:, :, :n]
    gxp = gw = None
    if need_gw:
        gw = np.empty(w.shape)
        for u, v, s in starts:
            # the transpose is a view: matmul hands it to BLAS as transposed
            gw[:, :, u, v] = (g @ flat[:, :, s:s + n].transpose(0, 2, 1)) \
                .sum(axis=0)
    if need_gx:
        gflat = np.zeros(flat.shape)
        part = np.empty((bsz, w.shape[1], n))
        for u, v, s in starts:
            np.matmul(w[:, :, u, v].T, g, out=part)
            gflat[:, :, s:s + n] += part
        gxp = gflat.reshape(xp.shape)
    return gxp, gw
