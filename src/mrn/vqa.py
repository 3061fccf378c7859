"""End-to-end model: question GRU + toy CNN + residual fusion stack.

Also owns the checkpoint format: a deterministic binary container with a
JSON header (dims, variant, parameter manifest) followed by raw float64
buffers. Round-trips are bit-exact.
"""

import dataclasses
import json
import os
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
# cnn_forward is looked up through its module at call time, so a wrapper set
# on encoders.cnn_forward (a profiler, a test double) applies here too
from . import encoders
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

    def named_parameters(self, include_cnn=True):
        out = {f"gru.{k}": t for k, t in self.gru.params.items()}
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
        v = encoders.cnn_forward(images, self.cnn, freeze=freeze_cnn)
        return mrn_forward(q, v, self.mrn, joint_dropout=joint_dropout)

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
        model = _model_from_header(header, offset, path)
        params = model.named_parameters()
        for entry in header["params"]:
            name = entry["name"]
            t = params[name]
            buf = _read_exact(f, t.size * 8, size, f"parameter {name}", path)
            t.data = np.frombuffer(buf).reshape(t.shape).copy()
    return model


_HEADER_FIELDS = {"vocab_size": int, "d_emb": int, "variant": str,
                  "use_bias": bool, "dims": dict, "cnn": dict, "params": list}


def _model_from_header(header, offset, path):
    """The model a header describes, after checking every field it uses.

    Any missing or mistyped field, dims/cnn key set that differs from the
    dataclass, or manifest that is not exactly the model's parameters with
    their shapes raises ValueError naming the field or parameter. Types are
    compared exactly, as json.loads makes them, so true is not an int.
    """
    def bad(problem):
        return ValueError(f"checkpoint header at offset {offset}: {problem}: "
                          f"{path}")

    def check_type(label, value, kind):
        if type(value) is not kind:
            raise bad(f"field {label!r} has type {type(value).__name__}, "
                      f"expected {kind.__name__}")

    if type(header) is not dict:
        raise bad("not a JSON object")
    for name, kind in _HEADER_FIELDS.items():
        if name not in header:
            raise bad(f"missing field {name!r}")
        check_type(name, header[name], kind)
    for name, cls in (("dims", ModelDims), ("cnn", CnnConfig)):
        want = sorted(f.name for f in dataclasses.fields(cls))
        if sorted(header[name]) != want:
            raise bad(f"field {name!r} has keys {sorted(header[name])}, "
                      f"expected {want}")
        for key, value in header[name].items():
            check_type(f"{name}.{key}", value, int)
    try:
        model = VqaModel(
            vocab_size=header["vocab_size"], d_emb=header["d_emb"],
            variant=header["variant"], dims=ModelDims(**header["dims"]),
            cnn_config=CnnConfig(**header["cnn"]),
            use_bias=header["use_bias"])
    except ValueError as exc:
        raise bad(exc) from exc
    params = model.named_parameters()
    seen = set()
    for entry in header["params"]:
        if not (type(entry) is dict and type(entry.get("name")) is str
                and type(entry.get("shape")) is list):
            raise bad(f"manifest entry {entry!r} needs a name and a shape")
        name, shape = entry["name"], entry["shape"]
        if name not in params:
            raise bad(f"manifest names unknown parameter {name!r}")
        if name in seen:
            raise bad(f"parameter {name!r} appears twice in the manifest")
        seen.add(name)
        want = list(params[name].shape)
        if shape != want or any(type(n) is not int for n in shape):
            raise bad(f"parameter {name!r} has shape {shape} in the "
                      f"manifest, {want} in the model")
    missing = sorted(set(params) - seen)
    if missing:
        raise bad(f"parameter {missing[0]!r} is missing from the manifest")
    return model
