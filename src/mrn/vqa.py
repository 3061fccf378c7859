"""End-to-end model: question GRU + toy CNN + residual fusion stack.

Also owns the checkpoint format: a deterministic binary container with a
JSON header (dims, variant, parameter manifest) followed by raw float64
buffers. Round-trips are bit-exact.
"""

import json
import os
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import CnnConfig, GruEncoder, QuestionBatch, ToyCnn, gru_forward, \
    gru_forward_trimzero
from .model import ModelDims, MrnModel, mrn_forward

CKPT_MAGIC = b"MRNCKPT1"


class VqaModel:
    def __init__(self, vocab_size, d_emb=16, variant="b", dims=None,
                 cnn_config=None, use_bias=True):
        self.vocab_size = vocab_size
        self.d_emb = d_emb
        self.dims = dims or ModelDims()
        cnn_config = cnn_config or CnnConfig(d_out=self.dims.d_v)
        if cnn_config.d_out != self.dims.d_v:
            raise ValueError("cnn d_out must equal d_v")
        self.gru = GruEncoder(vocab_size, d_emb, self.dims.d_q)
        self.cnn = ToyCnn(cnn_config)
        self.mrn = MrnModel(variant, self.dims, use_bias)

    @property
    def variant(self):
        return self.mrn.variant

    def named_parameters(self, include_cnn=True, include_gru=True):
        out = {}
        if include_gru:
            for k, t in self.gru.params.items():
                out[f"gru.{k}"] = t
        if include_cnn:
            for k, t in self.cnn.params.items():
                out[f"cnn.{k}"] = t
        for k, t in self.mrn.named_parameters().items():
            out[f"mrn.{k}"] = t
        return out

    def forward(self, images, batch, trimzero=True, freeze_cnn=False,
                counter=None, input_dropout=None, joint_dropout=None):
        """images (B,C,H,W) array or Tensor; batch: QuestionBatch."""
        encode = gru_forward_trimzero if trimzero else gru_forward
        q = encode(batch, self.gru, counter=counter, input_dropout=input_dropout)
        v = self.cnn_features(images, freeze=freeze_cnn)
        return mrn_forward(q, v, self.mrn, joint_dropout=joint_dropout)

    def cnn_features(self, images, freeze=False):
        from .encoders import cnn_forward
        return cnn_forward(images, self.cnn, freeze=freeze)

    def predict_logits(self, images, batch):
        _, logits = self.forward(images, batch)
        return logits.data


def save_checkpoint(model, path):
    params = model.named_parameters()
    names = sorted(params)
    manifest = [{"name": n, "shape": list(params[n].shape)} for n in names]
    header = {
        "vocab_size": model.vocab_size,
        "d_emb": model.d_emb,
        "variant": model.variant,
        "use_bias": model.mrn.use_bias,
        "dims": vars(model.dims),
        "cnn": vars(model.cnn.config),
        "params": manifest,
    }
    hb = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<Q", len(hb)))
        f.write(hb)
        for n in names:
            f.write(np.ascontiguousarray(params[n].data).tobytes())


def _read_exact(f, n, size, what, path):
    """n bytes from f, or ValueError naming the field, offset and path."""
    offset = f.tell()
    if n > size - offset:
        raise ValueError(f"truncated checkpoint: {what} at offset {offset} "
                         f"needs {n} bytes, {size - offset} left: {path}")
    return f.read(n)


def load_checkpoint(path):
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic at offset 0): {path}")
        (hlen,) = struct.unpack("<Q", _read_exact(f, 8, size, "header length",
                                                  path))
        offset = f.tell()
        hb = _read_exact(f, hlen, size, "header", path)
        try:
            header = json.loads(hb)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"checkpoint header at offset {offset} is not "
                             f"valid JSON ({exc}): {path}") from exc
        model = VqaModel(
            vocab_size=header["vocab_size"], d_emb=header["d_emb"],
            variant=header["variant"], dims=ModelDims(**header["dims"]),
            cnn_config=CnnConfig(**header["cnn"]), use_bias=header["use_bias"])
        params = model.named_parameters()
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            buf = _read_exact(f, n * 8, size, f"parameter {entry['name']}",
                              path)
            params[entry["name"]].data = np.frombuffer(buf).reshape(shape).copy()
    return model
