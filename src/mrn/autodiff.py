"""Reverse-mode automatic differentiation over dense float64 tensors.

Micrograd-style design: every op hands the node it builds its parents and
a closure ``_backward(g)`` that pushes the output gradient g back to them.
One rule decides what joins the tape, in ``Tensor.__init__``: a node keeps
its parents and closure only when it requires a gradient, which an op's
output does when one of its parents does. A node that no gradient reaches
is a leaf like a constant, so a computation on constants alone (a frozen
CNN on plain images, say) frees each intermediate as soon as nothing
refers to it.

``backward()`` walks the graph once in reverse topological order, passing
each node its own ``.grad``; only leaves keep theirs after the walk.
Gradients accumulate additively across fan-out: a tensor keeps its first
contribution as given and adds later ones into it in place. So a backward
hands each parent either a fresh array or its own output's gradient (or a
view of it), which the walk has finished with, and never one array to two
parents.

A closure captures its parents and arrays, never its own output node, so a
graph holds no reference cycle: it is freed by reference counting as soon
as its last reference drops, without waiting for the cyclic collector.

Ops are called by name (``add(a, b)``); Tensor overloads no operators.
Elementwise ops require identical shapes and never broadcast. Row-vector
bias addition is its own op (``add_bias``) so the rule stays explicit.
"""

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(),
                 _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def detach(self):
        """Copy of the value, cut off from the graph."""
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    def _accum(self, g):
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self):
        """Populate .grad of every requires_grad leaf under this scalar.

        An interior node's gradient is dropped once its backward has run,
        so a walk holds only the gradients still to be pushed back. A
        scalar that requires no gradient is a leaf with no parents: the
        walk reaches no other tensor, and its own .grad is the seed, ones
        of its shape, as for any leaf it starts from.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                if node._parents:
                    # an interior gradient is this walk's alone, even after
                    # a walk that raised before freeing it
                    node.grad = None
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _check_elementwise(a, b, opname):
    if a.shape != b.shape:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise

def add(a, b):
    _check_elementwise(a, b, "add")

    def _bw(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            # a may keep g and add into it later: b gets its own array
            b._accum(g.copy() if a.requires_grad else g)
    return Tensor(a.data + b.data, _parents=(a, b), _backward=_bw)


def sub(a, b):
    _check_elementwise(a, b, "sub")

    def _bw(g):
        if a.requires_grad:
            a._accum(g)
        if b.requires_grad:
            b._accum(-g)
    return Tensor(a.data - b.data, _parents=(a, b), _backward=_bw)


def mul(a, b):
    _check_elementwise(a, b, "mul")

    def _bw(g):
        if a.requires_grad:
            a._accum(g * b.data)
        if b.requires_grad:
            b._accum(g * a.data)
    return Tensor(a.data * b.data, _parents=(a, b), _backward=_bw)


def tanh(a):
    y = np.tanh(a.data)

    def _bw(g):
        d = y * y
        np.subtract(1.0, d, out=d)
        d *= g
        a._accum(d)
    return Tensor(y, _parents=(a,), _backward=_bw)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))

    def _bw(g):
        a._accum(g * y * (1.0 - y))
    return Tensor(y, _parents=(a,), _backward=_bw)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def _bw(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)
    return Tensor(a.data @ b.data, _parents=(a, b), _backward=_bw)


def add_bias(x, b):
    """x: (batch, n), b: (n,) added to every row."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape}")

    def _bw(g):
        if x.requires_grad:
            x._accum(g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))
    return Tensor(x.data + b.data, _parents=(x, b), _backward=_bw)


def linear(x, w, b):
    """x @ w + row bias b."""
    return add_bias(matmul(x, w), b)


# ---------------------------------------------------------------------------
# reductions / reshaping / indexing

def tsum(a):

    def _bw(g):
        a._accum(np.full_like(a.data, float(g)))
    return Tensor(a.data.sum(), _parents=(a,), _backward=_bw)


def reshape(a, shape):

    def _bw(g):
        a._accum(g.reshape(a.shape))
    return Tensor(a.data.reshape(shape), _parents=(a,), _backward=_bw)


def take_rows(a, idx):
    """Gather rows along axis 0; idx is an int array or a slice."""

    def _bw(g):
        ga = np.zeros_like(a.data)
        if isinstance(idx, slice):
            ga[idx] += g
        else:
            np.add.at(ga, idx, g)   # repeated indices add up
        a._accum(ga)
    return Tensor(a.data[idx], _parents=(a,), _backward=_bw)


def concat_rows(parts):
    """Concatenate along axis 0."""
    def _bw(g):
        off = 0
        for p in parts:
            n = p.data.shape[0]
            if p.requires_grad:
                p._accum(g[off:off + n])
            off += n
    return Tensor(np.concatenate([p.data for p in parts], axis=0),
                  _parents=tuple(parts), _backward=_bw)


# ---------------------------------------------------------------------------
# loss

def softmax_cross_entropy(logits, targets):
    """Mean NLL of integer targets under softmax(logits); logits (B, C)."""
    t = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits shape {logits.shape}")
    ncls = logits.shape[1]
    if t.min(initial=0) < 0 or t.max(initial=-1) >= ncls:
        raise IndexError(f"target class out of range [0, {ncls})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    bsz = logits.shape[0]
    nll = -(z[np.arange(bsz), t] - np.log(ez.sum(axis=1)))

    def _bw(g):
        d = p.copy()
        d[np.arange(bsz), t] -= 1.0
        logits._accum(d * (float(g) / bsz))
    return Tensor(nll.mean(), _parents=(logits,), _backward=_bw)


# ---------------------------------------------------------------------------
# convolution / pooling (kernels module does the heavy lifting)

def _pad(x, pad):
    """x's array with pad zeros around each (H, W) map."""
    bsz, c, h, wd = x.shape
    xp = np.zeros((bsz, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x.data
    return xp


def _conv(x, w, b, pad):
    """(xp, y): x padded, and its correlation with w plus the bias b on the
    padded-width grid (see kernels)."""
    if (x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]
            or b.shape != w.shape[:1] or pad < 0
            or any(n + 2 * pad < k for n, k in zip(x.shape[2:], w.shape[2:]))):
        raise ShapeError(f"conv2d: input {x.shape}, kernel {w.shape}, bias "
                         f"{b.shape}, padding {pad}")
    xp = _pad(x, pad)
    y = kernels.conv2d_forward(xp, w.data)
    y += b.data[None, :, None, None]   # y is the kernel's fresh output
    return xp, y


def _valid(y, w):
    """The valid columns of a conv's grid y: the last kw - 1 are junk."""
    return y[..., :y.shape[3] - w.shape[3] + 1]


def _conv_bw(x, w, b, xp, gy, pad):
    """Send the gradient gy on a conv's grid, zero in its junk columns, to
    x, w and b, as asked."""
    gxp, gw = kernels.conv2d_backward(xp, w.data, gy, x.requires_grad,
                                      w.requires_grad)
    if x.requires_grad:
        _, _, h, wd = x.shape
        x._accum(gxp[:, :, pad:pad + h, pad:pad + wd])
    if w.requires_grad:
        w._accum(gw)
    if b.requires_grad:
        b._accum(gy.sum(axis=(0, 2, 3)))


def _taps(k):
    return [(i, j) for i in range(k) for j in range(k)]


def _pool(a, k):
    """Mean of each non-overlapping k x k window of a (B, C, H, W) array,
    summed one strided tap at a time."""
    _, _, h, w = a.shape
    if h % k or w % k:
        raise ShapeError(f"avgpool2d: {h}x{w} not divisible by {k}")
    y = a[:, :, 0::k, 0::k].copy()
    for i, j in _taps(k)[1:]:
        y += a[:, :, i::k, j::k]
    y /= k * k
    return y


def conv2d(x, w, b, padding=1):
    """x: (B, C, H, W), w: (O, C, kh, kw), b: (O,). Stride 1."""
    xp, y = _conv(x, w, b, padding)

    def _bw(g):
        # onto the grid, zero in its junk columns
        gy = np.pad(g, [(0, 0)] * 3 + [(0, w.shape[3] - 1)])
        _conv_bw(x, w, b, xp, gy, padding)
    return Tensor(_valid(y, w).copy(), _parents=(x, w, b), _backward=_bw)


def avgpool2d(x, k=2):
    """Non-overlapping k x k average pooling; H, W must divide by k."""
    y = _pool(x.data, k)

    def _bw(g):
        gx = np.empty_like(x.data)
        gk = g / (k * k)
        for i, j in _taps(k):
            gx[:, :, i::k, j::k] = gk
        x._accum(gx)
    return Tensor(y, _parents=(x,), _backward=_bw)


def conv_tanh_pool(x, w, b, padding=1):
    """avgpool2d(tanh(conv2d(x, w, b, padding)), 2) as one tape node.

    Same ops in the same order, so the value and every gradient equal the
    composed form's to the bit. The node keeps x (a parent) and the tanh
    of the grid's valid columns; the padded input and the grid are freed
    when the forward returns. The backward writes tanh' times the pool's
    share into a zeroed grid and pads x again.
    """
    k = 2
    _, y = _conv(x, w, b, padding)
    grid = y.shape
    a = np.tanh(_valid(y, w))
    y = _pool(a, k)

    def _bw(g):
        # tanh' = 1 - a^2, times the pool's share g / k^2 at each tap
        gy = np.zeros(grid)
        gv = _valid(gy, w)
        np.multiply(a, a, out=gv)
        np.subtract(1.0, gv, out=gv)
        gk = g / (k * k)
        for i, j in _taps(k):
            gv[:, :, i::k, j::k] *= gk
        _conv_bw(x, w, b, _pad(x, padding), gy, padding)
    return Tensor(y, _parents=(x, w, b), _backward=_bw)
