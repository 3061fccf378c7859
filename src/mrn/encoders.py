"""Question and visual encoders.

The question encoder is a single-layer GRU (Cho et al. gating) over learned
word embeddings, read out at each sequence's true last token. Each time
step is one tape node with a hand-written backward. Two batch strategies
share that step function: a naive path that runs every padded position
under a write mask, and a TrimZero path that sorts rows by length and only
steps the still-active prefix at each time step.

The visual encoder is a small trainable CNN: two padded 3x3 convolutions
with tanh and stride-2 average pooling, then a fully-connected map to the
feature dimension. Each conv + tanh + pool stage is one tape node
(``autodiff.conv_tanh_pool``), which keeps its tanh map but not its padded
input or pre-tanh map. The conv stages run on consecutive runs of CNN_RUN
images, the linear map once on all of them.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD_ID = 0
# Images per run of the conv stages. A conv call's temporaries grow with the
# images it is given: in whole-batch calls conv1's forward columns (7.5 MB at
# batch 32) set a training step's memory peak (tracemalloc, two pinned-shape
# batch-32 steps: 11.8 MiB, 9.0 MiB in 8-image runs), and 8-image runs are
# no slower (15.5 against 16.9 ms a step, one BLAS thread).
CNN_RUN = 8
# GruEncoder.step's parameters, in the order its tape node lists them
GATE_PARAMS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_n")


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
        past = np.arange(maxlen) >= self.lengths[:, None]
        bad = np.flatnonzero((past & (self.tokens != PAD_ID)).any(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}: non-pad token past stated length")

    @classmethod
    def pad(cls, questions):
        """Batch of token-id sequences, right-padded with PAD_ID to the
        longest; each row's length is its sequence's length."""
        lengths = [len(q) for q in questions]
        tokens = np.full((len(questions), max(lengths)), PAD_ID,
                         dtype=np.int64)
        tokens[np.arange(tokens.shape[1]) < np.array(lengths)[:, None]] = \
            np.fromiter(itertools.chain.from_iterable(questions), np.int64)
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
        """One GRU step, h' = z * h + (1 - z) * n, as one tape node.

        The forward runs the ops of the composed form (sigmoid gates z and
        r, n = tanh(x W_n + b_n + (r * h) U_n)) in its order, so h' is the
        same to the bit; the backward sends the gradient to x, h and each
        gate parameter that requires one.
        """
        params = tuple(self.params[k] for k in GATE_PARAMS)
        w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_n = (t.data for t in params)
        xd, hd = x.data, h.data
        z = 1.0 / (1.0 + np.exp(-((xd @ w_z + b_z) + hd @ u_z)))
        r = 1.0 / (1.0 + np.exp(-((xd @ w_r + b_r) + hd @ u_r)))
        rh = r * hd
        n = np.tanh((xd @ w_n + b_n) + rh @ u_n)
        zc = 1.0 - z

        def _bw(g):
            # gradients at the pre-activations of z, r and n
            az = g * (hd - n) * z * zc
            an = g * zc * (1.0 - n * n)
            grh = an @ u_n.T
            ar = grh * hd * r * (1.0 - r)
            if x.requires_grad:
                x._accum(az @ w_z.T + ar @ w_r.T + an @ w_n.T)
            if h.requires_grad:
                h._accum(g * z + grh * r + az @ u_z.T + ar @ u_r.T)
            for i, (a, h_in) in enumerate(((az, hd), (ar, hd), (an, rh))):
                w, u, b = params[3 * i:3 * i + 3]
                if w.requires_grad:
                    w._accum(xd.T @ a)
                if u.requires_grad:
                    u._accum(h_in.T @ a)
                if b.requires_grad:
                    b._accum(a.sum(axis=0))
        return Tensor(z * hd + zc * n, _parents=(x, h) + params,
                      _backward=_bw)

    def embed(self, token_ids):
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=-1) >= self.vocab_size:
            raise IndexError(f"token id out of range [0, {self.vocab_size})")
        return ad.take_rows(self.params["emb"], ids)


def gru_forward(batch, enc, counter=None, input_dropout=None):
    """Hidden state at each row's true last token, naive masked scan.

    input_dropout(x, rows), when given, is applied to the embedded tokens x
    of each step, whose rows are those batch rows (the training loop passes
    a closure carrying rng + mode).
    """
    bsz, maxlen = batch.tokens.shape
    h = Tensor(np.zeros((bsz, enc.d_hidden)))
    for t in range(maxlen):
        x = enc.embed(batch.tokens[:, t])
        if input_dropout is not None:
            x = input_dropout(x, np.arange(bsz))
        h_new = enc.step(x, h)
        active = (t < batch.lengths).astype(np.float64)
        m = Tensor(np.repeat(active[:, None], enc.d_hidden, axis=1))
        h = ad.add(ad.mul(h_new, m), ad.mul(h, Tensor(1.0 - m.data)))
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
            x = input_dropout(x, order[:n_active])
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
    """Images (B,C,H,W) -> features (B, d_out).

    Each run of CNN_RUN images goes through the conv stages on its own,
    and the linear map reads their pooled maps concatenated.

    freeze reads the weights through constant tensors that share their
    arrays (no copy), so no gradient reaches them and the conv backward
    skips the weight-gradient work; the input image still receives
    gradients (needed by the visualization path).
    """
    c = cnn.config
    x = image if isinstance(image, Tensor) else Tensor(image)
    if x.ndim != 4 or x.shape[1:] != (c.in_channels, c.image_size, c.image_size):
        raise ad.ShapeError(f"cnn_forward: images of shape {x.shape}, the CNN "
                            f"takes (B, {c.in_channels}, {c.image_size}, "
                            f"{c.image_size})")
    p = {k: (Tensor(v.data) if freeze else v) for k, v in cnn.params.items()}
    pad = c.kernel // 2
    n = x.shape[0]
    pooled = []
    for i in range(0, n, CNN_RUN):
        y = ad.take_rows(x, slice(i, i + CNN_RUN))
        y = ad.conv_tanh_pool(y, p["conv1_w"], p["conv1_b"], pad)
        pooled.append(ad.conv_tanh_pool(y, p["conv2_w"], p["conv2_b"], pad))
    y = ad.concat_rows(pooled)
    y = ad.reshape(y, (n, c.flat_size))
    return ad.linear(y, p["fc_w"], p["fc_b"])
