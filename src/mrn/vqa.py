"""End-to-end model: question GRU + toy CNN + residual fusion stack.

Also owns the checkpoint format: the container of ``container.py`` with
magic MRNCKPT1, a header holding the model's sizes, variant and parameter
manifest, and one float64 buffer per parameter in name order. What is
checkpoint-specific is checked here: the header must describe a model that
can be built, and the manifest must list exactly its parameters and their
shapes. Round-trips are bit-exact.
"""

import dataclasses
import hashlib

import numpy as np

# cnn_forward is looked up through its module at call time, so a wrapper set
# on encoders.cnn_forward (a profiler, a test double) applies here too
from . import container, encoders
from .autodiff import ShapeError, Tensor
from .container import check_fields
from .encoders import CnnConfig, GruEncoder, ToyCnn, gru_forward_trimzero
# not called here; mrnbench/spans.py wraps this module's gru_forward name
from .encoders import gru_forward  # noqa: F401
from .model import ConfigError, ModelDims, MrnModel, mrn_forward

CKPT_MAGIC = b"MRNCKPT1"


class VqaModel:
    def __init__(self, vocab_size, d_emb=16, variant="b", dims=None,
                 cnn_config=None):
        if d_emb < 1:
            raise ConfigError(f"d_emb must be >= 1, got {d_emb}")
        self.vocab_size = vocab_size
        self.d_emb = d_emb
        self.dims = dims or ModelDims()
        cnn_config = cnn_config or CnnConfig(d_out=self.dims.d_v)
        if cnn_config.d_out != self.dims.d_v:
            raise ValueError("cnn d_out must equal d_v")
        self.gru = GruEncoder(vocab_size, d_emb, self.dims.d_q)
        self.cnn = ToyCnn(cnn_config)
        self.mrn = MrnModel(variant, self.dims)
        # fixed_features' store: call key -> feature rows, valid while the
        # CNN weights equal, bit for bit, the copy taken when it was emptied
        self._feature_rows = {}
        self._feature_weights = None

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

    def fixed_features(self, images):
        """(n, d_v) array of v for a sequence of n (C,H,W) images, read
        through constant CNN weights.

        The rows are cnn_forward on consecutive slices of CNN_RUN images
        of the call, concatenated, so they depend on the call and the CNN
        weights alone, whatever the BLAS rounds differently for other row
        counts. Slicing also keeps a call from stacking all its images at
        once (the 630-image train split peaks at 25 MiB in one CNN call,
        3.6 MiB in slices). Each call's rows are computed once per set of
        CNN weights and kept in a store under one sha256 over its images'
        float64 bytes, in order, so an equal call in another dtype shares
        them; the call gets a copy. Every image must have the CNN's
        (C,H,W) shape (ShapeError otherwise), so the bytes alone tell
        calls apart. Every call compares the CNN weights bit for bit with
        the store's copy of them and empties the store if any bit differs:
        RMSProp updates weights in place, so only their values show a
        change.
        """
        self._check_feature_weights()
        c = self.cnn.config
        shape = (c.in_channels, c.image_size, c.image_size)
        stack, digest = [], hashlib.sha256()
        for i, image in enumerate(images):
            a = np.ascontiguousarray(image, dtype=np.float64)
            if a.shape != shape:
                raise ShapeError(f"fixed_features: image {i} has shape "
                                 f"{a.shape}, the CNN takes {shape}")
            stack.append(a)
            digest.update(a)
        key = digest.digest()
        if key not in self._feature_rows:
            run = encoders.CNN_RUN
            self._feature_rows[key] = np.concatenate([
                encoders.cnn_forward(np.stack(stack[i:i + run]), self.cnn,
                                     freeze=True).data
                for i in range(0, len(stack), run)])
        return self._feature_rows[key].copy()

    def _check_feature_weights(self):
        """Empty the feature store unless the CNN weights are bitwise the
        ones it was filled under (a +0.0/-0.0 flip counts as a change)."""
        kept = self._feature_weights
        live = {k: t.data for k, t in self.cnn.params.items()}
        if kept is None or not all(
                np.array_equal(kept[k].view(np.uint64), a.view(np.uint64))
                for k, a in live.items()):
            self._feature_rows = {}
            self._feature_weights = {k: a.copy() for k, a in live.items()}

    def forward(self, v, batch, input_dropout=None, joint_dropout=None):
        """(H_L, logits) of the fusion stack on features v (a (B, d_v)
        Tensor) and the questions of batch, a QuestionBatch."""
        q = gru_forward_trimzero(batch, self.gru, input_dropout=input_dropout)
        return mrn_forward(q, v, self.mrn, joint_dropout=joint_dropout)

    def predict_logits(self, images, batch):
        """(B, n_answers) logits array for a sequence of B (C,H,W) images
        and a batch of B questions: v from fixed_features (so from its store
        when the same images were scored under these CNN weights), then one
        question/fusion forward over all B rows."""
        v = Tensor(self.fixed_features(images))
        return self.forward(v, batch)[1].data


def save_checkpoint(model, path):
    params = model.named_parameters()
    names = sorted(params)
    manifest = [{"name": n, "shape": list(params[n].shape)} for n in names]
    header = {
        "vocab_size": model.vocab_size,
        "d_emb": model.d_emb,
        "variant": model.variant,
        "dims": vars(model.dims),
        "cnn": vars(model.cnn.config),
        "params": manifest,
    }
    container.write(path, CKPT_MAGIC, header,
                    [params[n].data for n in names])


def load_checkpoint(path):
    with open(path, "rb") as f:
        r = container.Reader(f, path)
        r.magic(CKPT_MAGIC)
        header = r.header()
        model = _model_from_header(header, r.bad_header)
        params = model.named_parameters()
        for entry in header["params"]:
            name = entry["name"]
            params[name].data = r.floats(params[name].shape,
                                         f"parameter {name}")
        r.end("parameter")
    return model


_HEADER_FIELDS = {"vocab_size": int, "d_emb": int, "variant": str,
                  "dims": dict, "cnn": dict, "params": list}
_MANIFEST_FIELDS = {"name": str, "shape": [int]}


def _model_from_header(header, bad):
    """The model a header describes, after checking every field it uses.

    Any missing or mistyped field, dims/cnn key set that differs from the
    dataclass, or manifest that is not exactly the model's parameters with
    their shapes raises bad(problem) naming the field or parameter. A block
    holds at least one parameter, so n_blocks is capped by the manifest's
    length before any block is built, and dims too large to allocate are a
    bad header too. A field the loader does not read is ignored.
    """
    check_fields(header, _HEADER_FIELDS, "header", bad)
    for name, cls in (("dims", ModelDims), ("cnn", CnnConfig)):
        want = {f.name: int for f in dataclasses.fields(cls)}
        if sorted(header[name]) != sorted(want):
            raise bad(f"field {name!r} has keys {sorted(header[name])}, "
                      f"expected {sorted(want)}")
        check_fields(header[name], want, name, bad)
    manifest = header["params"]
    for i, entry in enumerate(manifest):
        check_fields(entry, _MANIFEST_FIELDS, f"manifest entry {i}", bad)
    if header["dims"]["n_blocks"] > len(manifest):
        raise bad(f"dims field 'n_blocks' is {header['dims']['n_blocks']}, "
                  f"more than the {len(manifest)} manifest entries")
    try:
        model = VqaModel(
            vocab_size=header["vocab_size"], d_emb=header["d_emb"],
            variant=header["variant"], dims=ModelDims(**header["dims"]),
            cnn_config=CnnConfig(**header["cnn"]))
    except (ValueError, MemoryError) as exc:
        raise bad(exc) from exc
    params = model.named_parameters()
    seen = set()
    for entry in manifest:
        name, shape = entry["name"], entry["shape"]
        if name not in params:
            raise bad(f"manifest names unknown parameter {name!r}")
        if name in seen:
            raise bad(f"parameter {name!r} appears twice in the manifest")
        seen.add(name)
        want = list(params[name].shape)
        if shape != want:
            raise bad(f"parameter {name!r} has shape {shape} in the "
                      f"manifest, {want} in the model")
    missing = sorted(set(params) - seen)
    if missing:
        raise bad(f"parameter {missing[0]!r} is missing from the manifest")
    return model
