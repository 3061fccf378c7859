"""Central finite-difference checking of tape gradients.

Used both by the test suite and the ``mrn gradcheck`` command. All checks
build the graph fresh per evaluation, so h=1e-5 central differences in
float64 resolve gradients to well below the 1e-4 acceptance threshold.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import CnnConfig, QuestionBatch
from .model import ModelDims
from .vqa import VqaModel


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    """Max elementwise |a-b| / max(|a|, |b|, 1e-6)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def check_tensor_grad(build_loss, value, h=1e-5):
    """Compare tape gradient vs finite differences for one leaf array.

    build_loss(tensor) must construct a fresh graph and return the scalar
    loss Tensor. Returns the max relative error.
    """
    leaf = Tensor(np.array(value, dtype=np.float64), requires_grad=True)
    loss = build_loss(leaf)
    loss.backward()
    analytic = leaf.grad.copy()
    numeric = fd_grad(lambda x: build_loss(Tensor(x)).item(), leaf.data, h)
    return rel_err(analytic, numeric)


def tiny_model(seed=0, variant="b", n_blocks=3):
    """A full VQA model small enough for exhaustive FD checking."""
    dims = ModelDims(d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=n_blocks)
    cnn = CnnConfig(in_channels=3, image_size=8, channels1=2, channels2=3,
                    kernel=3, d_out=5)
    model = VqaModel(vocab_size=6, d_emb=3, variant=variant, dims=dims,
                     cnn_config=cnn)
    rng = np.random.default_rng(seed)
    for name in sorted(model.named_parameters()):
        t = model.named_parameters()[name]
        t.data = rng.uniform(-0.4, 0.4, size=t.shape)
    return model


def tiny_batch(seed=0, batch_size=2, maxlen=4, image_size=8, vocab=6):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, maxlen + 1, size=batch_size)
    questions = [rng.integers(1, vocab, size=n) for n in lengths]
    images = rng.uniform(0, 1, size=(batch_size, 3, image_size, image_size))
    targets = rng.integers(0, 4, size=batch_size)
    return images, QuestionBatch.pad(questions), targets


def check_full_model(model=None, seed=0, h=1e-5):
    """FD-check every parameter tensor of a tiny end-to-end model.

    Returns a list of (name, max_rel_err), sorted by name.
    """
    model = model or tiny_model(seed)
    images, batch, targets = tiny_batch(seed, image_size=model.cnn.config.image_size,
                                        vocab=model.vocab_size)
    params = model.named_parameters()

    def loss_value():
        _, logits = model.forward(images, batch)
        return ad.softmax_cross_entropy(logits, targets)

    loss = loss_value()
    loss.backward()
    analytic = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for n, t in params.items()}
    results = []
    for name in sorted(params):
        t = params[name]

        def f(x, _t=t):
            old = _t.data
            _t.data = x
            val = loss_value().item()
            _t.data = old
            return val

        numeric = fd_grad(f, t.data.copy(), h)
        results.append((name, rel_err(analytic[name], numeric)))
        t.zero_grad()
    return results
