"""Residual fusion blocks, variant registry, block stacking, classifier.

A learning block maps (q_in, v) -> shortcut(q_in) + F(q_in, v), where the
residual F is an element-wise product of a tanh question mask and a tanh
visual embedding. Variants differ in embedding depth per modality and in
shortcut wiring:

  a: one tanh embedding per modality, linear question shortcut
  b: two-layer visual embedding, linear question shortcut
  c: two-layer embeddings for both modalities, linear question shortcut
  d: as b, but the question shortcut is a plain identity from block 2 on
     (block 1 keeps a linear map to reach the joint dimension)
  e: as b, plus a visual shortcut; its linear map exists only in block 1
     and its output is carried unchanged into later blocks
  mn: as b with the shortcut removed entirely (no-shortcut ablation)

Every linear map carries a bias. The paper writes the blocks and the
cascade of Eq. (6) without biases; that is this model with its biases at
zero, where they start.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ConfigError(ValueError):
    """Model wiring that violates a variant's constraints."""


@dataclass(frozen=True)
class VariantSpec:
    tag: str
    question_depth: int        # tanh layers on the mask path (1 or 2)
    visual_depth: int          # tanh layers on the visual path (1 or 2)
    shortcut: str              # "linear" | "identity_after_first" | "none"
    visual_shortcut: bool = False


VARIANTS = {
    "a": VariantSpec("a", 1, 1, "linear"),
    "b": VariantSpec("b", 1, 2, "linear"),
    "c": VariantSpec("c", 2, 2, "linear"),
    "d": VariantSpec("d", 1, 2, "identity_after_first"),
    "e": VariantSpec("e", 1, 2, "linear", visual_shortcut=True),
    "mn": VariantSpec("mn", 1, 2, "none"),
}


@dataclass
class ModelDims:
    d_q: int = 32
    d_v: int = 64
    d_joint: int = 64
    n_answers: int = 20
    n_blocks: int = 3

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")


class LearningBlock:
    def __init__(self, spec, index, d_in, d_v, d_joint):
        self.spec = spec
        self.index = index
        self.d_in = d_in
        self.d_joint = d_joint
        z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
        p = {}

        def dense(name, n_in):
            # the map n_in -> d_joint: weights w_<name>, bias b_<name>
            p[f"w_{name}"] = z(n_in, d_joint)
            p[f"b_{name}"] = z(d_joint)

        if spec.shortcut == "linear" or (spec.shortcut == "identity_after_first"
                                         and index == 0):
            dense("qs", d_in)
        elif spec.shortcut == "identity_after_first" and d_in != d_joint:
            raise ConfigError(
                f"variant {spec.tag}: identity shortcut at block {index + 1} "
                f"needs input dim {d_in} == joint dim {d_joint}")
        if spec.question_depth == 1:
            dense("q", d_in)
        else:
            dense("q1", d_in)
            dense("q2", d_joint)
        dense("v1", d_v)
        if spec.visual_depth == 2:
            dense("v2", d_joint)
        if spec.visual_shortcut and index == 0:
            dense("vs", d_v)
        self.params = p


def question_mask(q_in, block):
    """tanh-embedded question path (one or two layers)."""
    p = block.params
    if block.spec.question_depth == 1:
        return ad.tanh(ad.linear(q_in, p["w_q"], p["b_q"]))
    h = ad.tanh(ad.linear(q_in, p["w_q1"], p["b_q1"]))
    return ad.tanh(ad.linear(h, p["w_q2"], p["b_q2"]))


def visual_embedding(v, block):
    """tanh-embedded visual path (one or two layers)."""
    p = block.params
    h = ad.tanh(ad.linear(v, p["w_v1"], p["b_v1"]))
    if block.spec.visual_depth == 1:
        return h
    return ad.tanh(ad.linear(h, p["w_v2"], p["b_v2"]))


def joint_residual(q_in, v, block):
    """Element-wise product of question mask and visual embedding."""
    return ad.mul(question_mask(q_in, block), visual_embedding(v, block))


def block_forward(q_in, v, block, vshort=None):
    """Shortcut(q_in) + joint residual (+ carried visual shortcut)."""
    if q_in.shape[1] != block.d_in:
        raise ConfigError(f"block {block.index + 1}: input dim {q_in.shape[1]} "
                          f"!= expected {block.d_in}")
    p = block.params
    out = joint_residual(q_in, v, block)
    if "w_qs" in p:
        out = ad.add(ad.linear(q_in, p["w_qs"], p["b_qs"]), out)
    elif block.spec.shortcut == "identity_after_first":
        out = ad.add(q_in, out)
    if block.spec.visual_shortcut:
        if block.index == 0:
            vshort = ad.linear(v, p["w_vs"], p["b_vs"])
        elif vshort is None:
            raise ConfigError("visual-shortcut variant needs the block-1 "
                              "shortcut value from the caller")
        out = ad.add(out, vshort)
    return out, vshort


class MrnModel:
    def __init__(self, variant="b", dims=None):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        self.variant = variant
        self.spec = VARIANTS[variant]
        self.dims = dims or ModelDims()
        self.blocks = []
        d_in = self.dims.d_q
        for i in range(self.dims.n_blocks):
            self.blocks.append(LearningBlock(self.spec, i, d_in, self.dims.d_v,
                                             self.dims.d_joint))
            d_in = self.dims.d_joint
        z = lambda *s: Tensor(np.zeros(s), requires_grad=True)
        self.params = {"cls_w": z(self.dims.d_joint, self.dims.n_answers),
                       "cls_b": z(self.dims.n_answers)}

    def named_parameters(self):
        out = {}
        for i, blk in enumerate(self.blocks):
            for k, t in blk.params.items():
                out[f"block{i + 1}.{k}"] = t
        out.update(self.params)
        return out


def mrn_forward(q, v, model, joint_dropout=None):
    """Stack all blocks (H_0 = q, the same v feeds every block) and classify.

    joint_dropout, when given, is applied to each block's output during
    training. Returns (H_L, logits).
    """
    h = q
    vshort = None
    for blk in model.blocks:
        h, vshort = block_forward(h, v, blk, vshort)
        if joint_dropout is not None:
            h = joint_dropout(h)
    logits = ad.linear(h, model.params["cls_w"], model.params["cls_b"])
    return h, logits


def param_count(model):
    """Learnable scalars in blocks + classifier (encoders excluded)."""
    return sum(t.data.size for t in model.named_parameters().values())


def solve_dim_for_budget(variant, n_blocks, d_q, d_v, n_answers,
                         target_params):
    """Largest d_joint whose param_count fits the budget, by bisection."""
    def count(dj):
        dims = ModelDims(d_q=d_q, d_v=d_v, d_joint=dj, n_answers=n_answers,
                         n_blocks=n_blocks)
        return param_count(MrnModel(variant, dims))

    if count(1) > target_params:
        raise ConfigError(f"budget {target_params} below the smallest "
                          f"{variant}/L={n_blocks} model ({count(1)} params)")
    lo, hi = 1, 2
    while count(hi) <= target_params:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if count(mid) <= target_params:
            lo = mid
        else:
            hi = mid
    return lo
