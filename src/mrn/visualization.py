"""Implicit-attention visualization by input-gradient back-propagation.

For block l, the visual branch output V = tanh-embedding of v and the
masked residual F = mask * V differ by the effect of the question mask;
the gradient of 0.5*||V - F||^2 w.r.t. the input image (with F held
constant) localizes that effect. Channel-summed absolute gradients are
thresholded at mean + population std to produce the binary attention mask.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
# the GRU is looked up through its module at call time, so a wrapper set on
# encoders.gru_forward_trimzero (a profiler, a test double) applies here too
from . import encoders
from .autodiff import Tensor
from .encoders import QuestionBatch, cnn_forward
from .model import block_forward, joint_residual, visual_embedding


class UnsupportedVariantError(ValueError):
    """The variant's residual does not factor into mask * visual branch."""


def _check_factorable(spec):
    # every registered variant carries the two-factor product; the check
    # guards externally constructed specs without a visual branch
    if spec.visual_depth not in (1, 2):
        raise UnsupportedVariantError(
            f"variant {spec.tag!r} has no factorable visual branch")


def attention_effect_loss(q_in, v, block):
    """0.5 * sum((V - F)^2) with F detached from the graph."""
    _check_factorable(block.spec)
    vis = visual_embedding(v, block)
    f_const = joint_residual(q_in, v, block).detach()
    diff = ad.sub(vis, f_const)
    return ad.mul(Tensor(0.5), ad.tsum(ad.mul(diff, diff)))


def attention_gradient(example, model, block_index):
    """Gradient of block block_index's attention-effect loss w.r.t. pixels.

    model is a VqaModel; the CNN runs with frozen weights but a
    differentiable input (its visualization augmentation). The question
    input of the block is H_{l-1} from a full forward pass, held constant.
    """
    q = encoders.gru_forward_trimzero(QuestionBatch.pad([example.question]),
                                      model.gru)
    return attention_gradient_for(example.image, q, model, block_index)


def attention_gradient_for(image, q, model, block_index):
    """As attention_gradient, with the encoded question q already given."""
    n_blocks = len(model.mrn.blocks)
    if not (1 <= block_index <= n_blocks):
        raise IndexError(f"block index {block_index} not in [1, {n_blocks}]")
    img = np.asarray(image.data if isinstance(image, Tensor) else image)
    if img.ndim == 3:
        img = img[None]
    leaf = Tensor(img.copy(), requires_grad=True)
    v = cnn_forward(leaf, model.cnn, freeze=True)
    # constant H_{l-1}: run the stack on a detached copy of v
    q_const = q.detach() if isinstance(q, Tensor) else Tensor(np.asarray(q))
    if q_const.ndim == 1:
        q_const = ad.reshape(q_const, (1,) + q_const.shape)
    h = q_const
    v_const = v.detach()
    vshort = None
    for blk in model.mrn.blocks[:block_index - 1]:
        h, vshort = block_forward(h, v_const, blk, vshort)
    block = model.mrn.blocks[block_index - 1]
    loss = attention_effect_loss(h.detach(), v, block)
    loss.backward()
    grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    return grad[0]


@dataclass
class AttentionHeatmap:
    block_index: int
    raw: np.ndarray        # (C, H, W) input gradient
    saliency: np.ndarray   # (H, W) channel-summed absolute values
    mask: np.ndarray       # (H, W) bool, saliency > threshold
    threshold: float


def render_heatmap(raw, block_index=0):
    """Channel-summed |gradient|, thresholded at mean + population std."""
    raw = np.asarray(raw, dtype=np.float64)
    saliency = np.abs(raw).sum(axis=0)
    tau = float(saliency.mean() + saliency.std())
    return AttentionHeatmap(block_index=block_index, raw=raw,
                            saliency=saliency, mask=saliency > tau,
                            threshold=tau)


def overlay_image(image, mask, dim=0.35):
    """Full brightness where the mask is set, dimmed elsewhere."""
    img = np.asarray(image, dtype=np.float64)
    scale = np.where(mask[None], 1.0, dim)
    return np.clip(img * scale, 0.0, 1.0)


# ---------------------------------------------------------------------------
# portable pixmap output

def write_pgm(path, gray):
    """Binary PGM (P5); input floats are max-normalized to 0..255."""
    g = np.asarray(gray, dtype=np.float64)
    peak = g.max()
    if peak > 0:
        g = g / peak
    pix = np.clip(g * 255.0, 0, 255).astype(np.uint8)
    h, w = pix.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(pix.tobytes())


def write_ppm(path, rgb):
    """Binary PPM (P6); input is (3, H, W) in [0, 1]."""
    img = np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0)
    pix = (img * 255.0).round().astype(np.uint8).transpose(1, 2, 0)
    h, w, _ = pix.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pix.tobytes())


def visualize_sequence(example, model, out_dir):
    """One heatmap per block plus a composite strip; writes image files.

    Returns (heatmaps, manifest_path).
    """
    os.makedirs(out_dir, exist_ok=True)
    q = encoders.gru_forward_trimzero(QuestionBatch.pad([example.question]),
                                      model.gru)
    heatmaps = []
    manifest = {"question": example.question_text, "blocks": {}}
    panels = [np.asarray(example.image)]
    for l in range(1, len(model.mrn.blocks) + 1):
        raw = attention_gradient_for(example.image, q, model, l)
        hm = render_heatmap(raw, block_index=l)
        heatmaps.append(hm)
        spath = os.path.join(out_dir, f"block{l}_saliency.pgm")
        opath = os.path.join(out_dir, f"block{l}_overlay.ppm")
        write_pgm(spath, hm.saliency)
        over = overlay_image(example.image, hm.mask)
        write_ppm(opath, over)
        panels.append(over)
        manifest["blocks"][str(l)] = {"saliency": spath, "overlay": opath}
    orig_path = os.path.join(out_dir, "original.ppm")
    write_ppm(orig_path, example.image)
    manifest["original"] = orig_path
    composite = np.concatenate(panels, axis=2)
    comp_path = os.path.join(out_dir, "composite.ppm")
    write_ppm(comp_path, composite)
    manifest["composite"] = comp_path
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return heatmaps, manifest_path
