"""Question and visual encoders.

The question encoder is a single-layer GRU (Cho et al. gating) over learned
word embeddings, read out at each sequence's true last token. Two batch
strategies share one step function: a naive path that runs every padded
position under a write mask, and a TrimZero path that sorts rows by length
and only steps the still-active prefix at each time step.

The visual encoder is a small trainable CNN: two padded 3x3 convolutions
with tanh and stride-2 average pooling, then a fully-connected map to the
feature dimension.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD_ID = 0


@dataclass
class QuestionBatch:
    """Padded token-id matrix (batch x maxlen) with true lengths."""
    tokens: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.tokens.ndim != 2 or self.lengths.shape != (self.tokens.shape[0],):
            raise ValueError("tokens must be (batch, maxlen) with one length per row")
        maxlen = self.tokens.shape[1]
        if np.any(self.lengths < 1) or np.any(self.lengths > maxlen):
            raise ValueError("lengths must lie in [1, maxlen]")
        for i, n in enumerate(self.lengths):
            if np.any(self.tokens[i, n:] != PAD_ID):
                raise ValueError(f"row {i}: non-pad token past stated length")

    @classmethod
    def pad(cls, questions):
        """Batch of token-id sequences, right-padded with PAD_ID to the
        longest; each row's length is its sequence's length."""
        lengths = [len(q) for q in questions]
        tokens = np.full((len(questions), max(lengths)), PAD_ID,
                         dtype=np.int64)
        for row, q in enumerate(questions):
            tokens[row, :len(q)] = q
        return cls(tokens, lengths)


@dataclass
class StepCounter:
    """Counts row-steps actually computed, for the TrimZero comparison."""
    row_steps: int = 0


class GruEncoder:
    def __init__(self, vocab_size, d_emb, d_hidden):
        self.vocab_size = vocab_size
        self.d_emb = d_emb
        self.d_hidden = d_hidden
        z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
        self.params = {
            "emb": z(vocab_size, d_emb),
            "w_z": z(d_emb, d_hidden), "u_z": z(d_hidden, d_hidden), "b_z": z(d_hidden),
            "w_r": z(d_emb, d_hidden), "u_r": z(d_hidden, d_hidden), "b_r": z(d_hidden),
            "w_n": z(d_emb, d_hidden), "u_n": z(d_hidden, d_hidden), "b_n": z(d_hidden),
        }

    def step(self, x, h):
        """One GRU step: h' = z * h + (1 - z) * n."""
        p = self.params
        zg = ad.sigmoid(ad.add(ad.linear(x, p["w_z"], p["b_z"]), ad.matmul(h, p["u_z"])))
        rg = ad.sigmoid(ad.add(ad.linear(x, p["w_r"], p["b_r"]), ad.matmul(h, p["u_r"])))
        n = ad.tanh(ad.add(ad.linear(x, p["w_n"], p["b_n"]),
                           ad.matmul(ad.mul(rg, h), p["u_n"])))
        return ad.add(ad.mul(zg, h), ad.mul(ad.sub(Tensor(1.0), zg), n))

    def embed(self, token_ids):
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=-1) >= self.vocab_size:
            raise IndexError(f"token id out of range [0, {self.vocab_size})")
        return ad.take_rows(self.params["emb"], ids)


def gru_forward(batch, enc, counter=None, input_dropout=None):
    """Hidden state at each row's true last token, naive masked scan.

    input_dropout, when given, is a callable applied to the embedded tokens
    of each step (the training loop passes a closure carrying rng + mode).
    """
    bsz, maxlen = batch.tokens.shape
    h = Tensor(np.zeros((bsz, enc.d_hidden)))
    for t in range(maxlen):
        x = enc.embed(batch.tokens[:, t])
        if input_dropout is not None:
            x = input_dropout(x, t, np.arange(bsz))
        h_new = enc.step(x, h)
        active = (t < batch.lengths).astype(np.float64)
        m = Tensor(np.repeat(active[:, None], enc.d_hidden, axis=1))
        h = ad.add(ad.mul(h_new, m), ad.mul(h, ad.sub(Tensor(1.0), m)))
        if counter is not None:
            counter.row_steps += bsz
    return h


def gru_forward_trimzero(batch, enc, counter=None, input_dropout=None):
    """Same contract as gru_forward; skips computation at padded positions.

    Rows are sorted by descending length so the active set at every step is
    a prefix; only that prefix is stepped, the rest of the hidden state is
    carried through untouched, and rows are unsorted at the end.
    """
    bsz, maxlen = batch.tokens.shape
    order = np.argsort(-batch.lengths, kind="stable")
    inv = np.argsort(order, kind="stable")
    lengths = batch.lengths[order]
    tokens = batch.tokens[order]
    h = Tensor(np.zeros((bsz, enc.d_hidden)))
    for t in range(maxlen):
        n_active = int(np.searchsorted(-lengths, -t, side="left"))
        if n_active == 0:
            break
        x = enc.embed(tokens[:n_active, t])
        if input_dropout is not None:
            x = input_dropout(x, t, order[:n_active])
        h_active = ad.take_rows(h, slice(0, n_active))
        h_new = enc.step(x, h_active)
        if n_active < bsz:
            h = ad.concat_rows([h_new, ad.take_rows(h, slice(n_active, bsz))])
        else:
            h = h_new
        if counter is not None:
            counter.row_steps += n_active
    return ad.take_rows(h, inv)


@dataclass
class CnnConfig:
    in_channels: int = 3
    image_size: int = 32
    channels1: int = 8
    channels2: int = 16
    kernel: int = 3
    d_out: int = 64

    @property
    def flat_size(self):
        return self.channels2 * (self.image_size // 4) ** 2


class ToyCnn:
    def __init__(self, config=None):
        self.config = config or CnnConfig()
        c = self.config
        z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
        self.params = {
            "conv1_w": z(c.channels1, c.in_channels, c.kernel, c.kernel),
            "conv1_b": z(c.channels1),
            "conv2_w": z(c.channels2, c.channels1, c.kernel, c.kernel),
            "conv2_b": z(c.channels2),
            "fc_w": z(c.flat_size, c.d_out),
            "fc_b": z(c.d_out),
        }


def cnn_forward(image, cnn, freeze=False):
    """Image (C,H,W) or (B,C,H,W) -> features (B, d_out).

    freeze detaches the weights so no gradient reaches them; the input
    image still receives gradients (needed by the visualization path).
    """
    c = cnn.config
    x = image if isinstance(image, Tensor) else Tensor(image)
    if x.ndim == 3:
        x = ad.reshape(x, (1,) + x.shape)
    if x.ndim != 4 or x.shape[1:] != (c.in_channels, c.image_size, c.image_size):
        raise ad.ShapeError(f"cnn_forward: image shape {x.shape} does not match "
                            f"config {(c.in_channels, c.image_size, c.image_size)}")
    p = {k: (v.detach() if freeze else v) for k, v in cnn.params.items()}
    pad = c.kernel // 2
    y = ad.tanh(ad.conv2d(x, p["conv1_w"], p["conv1_b"], padding=pad))
    y = ad.avgpool2d(y, 2)
    y = ad.tanh(ad.conv2d(y, p["conv2_w"], p["conv2_b"], padding=pad))
    y = ad.avgpool2d(y, 2)
    y = ad.reshape(y, (y.shape[0], c.flat_size))
    return ad.linear(y, p["fc_w"], p["fc_b"])
