"""Reverse-mode automatic differentiation over dense float64 tensors.

Micrograd-style design: every op builds a node holding its parents and a
closure ``_backward(g)`` that pushes the output gradient g back to them.
``backward()`` walks the graph once in reverse topological order, passing
each node its own ``.grad``. Gradients accumulate additively across fan-out.

A closure captures its parents and arrays, never its own output node, so a
graph holds no reference cycle: it is freed by reference counting as soon
as its last reference drops, without waiting for the cyclic collector.

Elementwise ops require identical shapes; the only broadcasting allowed is
a python scalar (or 0-d tensor) against a tensor. Row-vector bias addition
is its own op (``add_bias``) so the rule stays explicit.
"""

import numpy as np

from . import kernels


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def detach(self):
        """Copy of the value, cut off from the graph."""
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Populate .grad of every requires_grad ancestor of this scalar."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(
                f"backward() needs a scalar, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
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

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _lift(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _check_elementwise(a, b, opname):
    if a.shape == b.shape:
        return
    if a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} differ "
                     "(only scalar broadcasting is supported)")


# ---------------------------------------------------------------------------
# elementwise

def _accum_maybe_scalar(t, g):
    # scalar operands collect the sum of the broadcast gradient
    t._accum(g if t.ndim == g.ndim else g.sum())


def add(a, b):
    _check_elementwise(a, b, "add")
    out = Tensor(a.data + b.data, _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            _accum_maybe_scalar(a, g)
        if b.requires_grad:
            _accum_maybe_scalar(b, g)
    out._backward = _bw if out.requires_grad else None
    return out


def sub(a, b):
    _check_elementwise(a, b, "sub")
    out = Tensor(a.data - b.data, _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            _accum_maybe_scalar(a, g)
        if b.requires_grad:
            _accum_maybe_scalar(b, -g)
    out._backward = _bw if out.requires_grad else None
    return out


def mul(a, b):
    _check_elementwise(a, b, "mul")
    out = Tensor(a.data * b.data, _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            _accum_maybe_scalar(a, g * b.data)
        if b.requires_grad:
            _accum_maybe_scalar(b, g * a.data)
    out._backward = _bw if out.requires_grad else None
    return out


def tanh(a):
    y = np.tanh(a.data)
    out = Tensor(y, _parents=(a,))

    def _bw(g):
        a._accum(g * (1.0 - y * y))
    out._backward = _bw if out.requires_grad else None
    return out


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    out = Tensor(y, _parents=(a,))

    def _bw(g):
        a._accum(g * y * (1.0 - y))
    out._backward = _bw if out.requires_grad else None
    return out


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)
    out._backward = _bw if out.requires_grad else None
    return out


def add_bias(x, b):
    """x: (batch, n), b: (n,) added to every row."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape}")
    out = Tensor(x.data + b.data, _parents=(x, b))

    def _bw(g):
        if x.requires_grad:
            x._accum(g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))
    out._backward = _bw if out.requires_grad else None
    return out


def linear(x, w, b=None):
    """x @ w (+ row bias b)."""
    y = matmul(x, w)
    if b is not None:
        y = add_bias(y, b)
    return y


# ---------------------------------------------------------------------------
# reductions / reshaping / indexing

def tsum(a):
    out = Tensor(a.data.sum(), _parents=(a,))

    def _bw(g):
        a._accum(np.full_like(a.data, float(g)))
    out._backward = _bw if out.requires_grad else None
    return out


def tmean(a):
    out = Tensor(a.data.mean(), _parents=(a,))

    def _bw(g):
        a._accum(np.full_like(a.data, float(g) / a.size))
    out._backward = _bw if out.requires_grad else None
    return out


def reshape(a, shape):
    out = Tensor(a.data.reshape(shape), _parents=(a,))

    def _bw(g):
        a._accum(g.reshape(a.shape))
    out._backward = _bw if out.requires_grad else None
    return out


def take_rows(a, idx):
    """Gather rows along axis 0; idx is an int array or a slice."""
    out = Tensor(a.data[idx], _parents=(a,))

    def _bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        a._accum(ga)
    out._backward = _bw if out.requires_grad else None
    return out


def concat_rows(parts):
    """Concatenate along axis 0."""
    out = Tensor(np.concatenate([p.data for p in parts], axis=0),
                 _parents=tuple(parts))

    def _bw(g):
        off = 0
        for p in parts:
            n = p.data.shape[0]
            if p.requires_grad:
                p._accum(g[off:off + n])
            off += n
    out._backward = _bw if out.requires_grad else None
    return out


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
    out = Tensor(nll.mean(), _parents=(logits,))

    def _bw(g):
        d = p.copy()
        d[np.arange(bsz), t] -= 1.0
        logits._accum(d * (float(g) / bsz))
    out._backward = _bw if out.requires_grad else None
    return out


# ---------------------------------------------------------------------------
# convolution / pooling (kernels module does the heavy lifting)

def conv2d(x, w, b=None, padding=1):
    """x: (B, C, H, W), w: (O, C, kh, kw), b: (O,). Stride 1."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: shapes {x.shape} and {w.shape}")
    pad = padding
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = kernels.conv2d_forward(xp, w.data)
    if b is not None:
        y = y + b.data[None, :, None, None]
    parents = (x, w) if b is None else (x, w, b)
    out = Tensor(y, _parents=parents)

    def _bw(g):
        gxp, gw = kernels.conv2d_backward(xp, w.data, g)
        if x.requires_grad:
            h, wd = x.shape[2], x.shape[3]
            x._accum(gxp[:, :, pad:pad + h, pad:pad + wd])
        if w.requires_grad:
            w._accum(gw)
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=(0, 2, 3)))
    out._backward = _bw if out.requires_grad else None
    return out


def avgpool2d(x, k=2):
    """Non-overlapping k x k average pooling; H, W must divide by k."""
    bsz, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"avgpool2d: {h}x{w} not divisible by {k}")
    y = x.data.reshape(bsz, c, h // k, k, w // k, k).mean(axis=(3, 5))
    out = Tensor(y, _parents=(x,))

    def _bw(g):
        x._accum(np.repeat(np.repeat(g, k, axis=2), k, axis=3) / (k * k))
    out._backward = _bw if out.requires_grad else None
    return out
