"""Central finite-difference checking of tape gradients.

Used both by the test suite and the ``mrn gradcheck`` command. All checks
build the graph fresh per evaluation, so central differences of step
FD_STEP in float64 resolve gradients to well below the 1e-4 acceptance
threshold.
"""

import numpy as np

from . import autodiff as ad
from . import encoders
from .autodiff import Tensor
from .encoders import CnnConfig, QuestionBatch
from .model import ModelDims
from .training import init_params
from .vqa import VqaModel

FD_STEP = 1e-5


def fd_grad(f, x):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f(x)
        flat[i] = orig - FD_STEP
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * FD_STEP)
    return g


def rel_err(a, b):
    """Max elementwise |a-b| / max(|a|, |b|, 1e-6)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def check_tensor_grad(build_loss, value):
    """Compare tape gradient vs finite differences for one leaf array.

    build_loss(tensor) must construct a fresh graph and return the scalar
    loss Tensor. Returns the max relative error.
    """
    leaf = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    loss = build_loss(leaf)
    loss.backward()
    analytic = leaf.grad.copy()
    numeric = fd_grad(lambda x: build_loss(Tensor(x)).item(), leaf.data)
    return rel_err(analytic, numeric)


def tiny_model(seed=0, variant="b", n_blocks=3):
    """A full VQA model small enough for exhaustive FD checking."""
    dims = ModelDims(d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=n_blocks)
    cnn = CnnConfig(in_channels=3, image_size=8, channels1=2, channels2=3,
                    kernel=3, d_out=5)
    model = VqaModel(vocab_size=6, d_emb=3, variant=variant, dims=dims,
                     cnn_config=cnn)
    init_params(model.named_parameters(), 0.4, seed)
    return model


def tiny_batch(seed=0):
    """Two random examples for tiny_model: (images, QuestionBatch,
    targets), with questions of 1-4 tokens."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 5, size=2)
    questions = [rng.integers(1, 6, size=n) for n in lengths]
    images = rng.uniform(0, 1, size=(2, 3, 8, 8))
    targets = rng.integers(0, 4, size=2)
    return images, QuestionBatch.pad(questions), targets


def check_full_model(seed=0):
    """FD-check every parameter tensor of tiny_model(seed).

    Returns a list of (name, max_rel_err), sorted by name.
    """
    model = tiny_model(seed)
    images, batch, targets = tiny_batch(seed)
    params = model.named_parameters()

    def loss_value():
        _, logits = model.forward(encoders.cnn_forward(images, model.cnn),
                                  batch)
        return ad.softmax_cross_entropy(logits, targets)

    loss = loss_value()
    loss.backward()
    # every parameter reaches the loss, so each has a gradient
    analytic = {n: t.grad.copy() for n, t in params.items()}
    results = []
    for name in sorted(params):
        t = params[name]

        def f(x, _t=t):
            old = _t.data
            _t.data = x
            val = loss_value().item()
            _t.data = old
            return val

        numeric = fd_grad(f, t.data.copy())
        results.append((name, rel_err(analytic[name], numeric)))
        t.zero_grad()
    return results
