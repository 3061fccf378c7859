"""Implicit-attention visualization by input-gradient back-propagation.

For block l, the visual branch output V = tanh-embedding of v and the
masked residual F = mask * V differ by the effect of the question mask;
the gradient of 0.5*||V - F||^2 w.r.t. the input image (with F held
constant) localizes that effect. Channel-summed absolute gradients are
thresholded at mean + population std to produce the binary attention mask.

One graph per example gives every block's gradient: the CNN runs once on
L copies of the image, and block l's loss reads row l-1 of its features.
The CNN never mixes rows, so one backward leaves block l's gradient in row
l-1. CNN and blocks read their weights through constant tensors that share
the parameters' arrays, so no parameter gets a grad and nothing is copied.

Output files are rewritten in place: opened without truncation, written in
full, then cut to the new length. Truncating a file to zero before writing
it again makes some file systems (ext4's auto_da_alloc) free its blocks and
start writeback at every close, which cost more than the compute. A run
killed mid-write may leave a file holding old and new bytes mixed.
"""

import copy
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
from .model import block_forward, question_mask, visual_embedding


def attention_effect_loss(q_in, v, block):
    """0.5 * sum((V - F)^2) with F = mask * V held constant.

    V is computed once; F multiplies its values by the question mask's, so
    F carries no graph and equals joint_residual's forward bit for bit.
    """
    vis = visual_embedding(v, block)
    f_const = Tensor(question_mask(q_in, block).data * vis.data)
    diff = ad.sub(vis, f_const)
    return ad.mul(Tensor(0.5), ad.tsum(ad.mul(diff, diff)))


def attention_gradient(example, model, block_index):
    """Block block_index's (C, H, W) row of attention_gradient_for."""
    n_blocks = len(model.mrn.blocks)
    if not (1 <= block_index <= n_blocks):
        raise IndexError(f"block index {block_index} not in [1, {n_blocks}]")
    q = encoders.gru_forward_trimzero(QuestionBatch.pad([example.question]),
                                      model.gru)
    return attention_gradient_for(example.image, q, model)[block_index - 1]


def attention_gradient_for(image, q, model):
    """(L, C, H, W) pixel gradients of each block's attention-effect loss.

    image is (C, H, W), q the (1, d_q) encoded question; the block inputs
    H_0..H_{L-1} come from the detached features of row 0, held constant.
    """
    blocks = [copy.copy(blk) for blk in model.mrn.blocks]
    for blk in blocks:
        blk.params = {k: Tensor(t.data) for k, t in blk.params.items()}
    leaf = Tensor(np.stack([image] * len(blocks)), requires_grad=True)
    v = cnn_forward(leaf, model.cnn, freeze=True)
    v_const = Tensor(v.data[:1])
    h, vshort = q.detach(), None
    total = attention_effect_loss(h, ad.take_rows(v, slice(0, 1)), blocks[0])
    for l in range(1, len(blocks)):
        h, vshort = block_forward(h, v_const, blocks[l - 1], vshort)
        row = ad.take_rows(v, slice(l, l + 1))
        total = ad.add(total, attention_effect_loss(h, row, blocks[l]))
    total.backward()
    return leaf.grad


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


def overlay_image(image, mask):
    """Full brightness where the mask is set, 0.35 of it elsewhere."""
    img = np.asarray(image, dtype=np.float64)
    scale = np.where(mask[None], 1.0, 0.35)
    return np.clip(img * scale, 0.0, 1.0)


# ---------------------------------------------------------------------------
# file output

def _write_file(path, data):
    """Make path hold exactly data, rewriting an existing file in place.

    The file is opened without truncation: the old bytes are overwritten,
    then any longer tail is cut off with ftruncate.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_pgm(path, gray):
    """Binary PGM (P5); input floats are max-normalized to 0..255."""
    g = np.asarray(gray, dtype=np.float64)
    peak = g.max()
    if peak > 0:
        g = g / peak
    pix = np.clip(g * 255.0, 0, 255).astype(np.uint8)
    h, w = pix.shape
    _write_file(path, f"P5\n{w} {h}\n255\n".encode() + pix.tobytes())


def write_ppm(path, rgb):
    """Binary PPM (P6); input is (3, H, W) in [0, 1]."""
    img = np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0)
    pix = (img * 255.0).round().astype(np.uint8).transpose(1, 2, 0)
    h, w, _ = pix.shape
    _write_file(path, f"P6\n{w} {h}\n255\n".encode() + pix.tobytes())


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
    raws = attention_gradient_for(example.image, q, model)
    for l, raw in enumerate(raws, start=1):
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
    _write_file(manifest_path,
                json.dumps(manifest, indent=2, sort_keys=True).encode())
    return heatmaps, manifest_path
