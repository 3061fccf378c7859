import itertools
import json
import os

import numpy as np
import pytest

from mrn import autodiff as ad
from mrn import kernels, visualization
from mrn.autodiff import Tensor
from mrn.encoders import cnn_forward
from mrn.gradcheck import tiny_model
from mrn.model import VARIANTS, LearningBlock, joint_residual, \
    visual_embedding
from mrn.training import init_params
from mrn.visualization import attention_effect_loss, attention_gradient, \
    attention_gradient_for, overlay_image, render_heatmap, \
    visualize_sequence, write_pgm, write_ppm


def small_block(seed=0, d_in=4, d_v=5, d_joint=5):
    from mrn.model import VARIANTS
    blk = LearningBlock(VARIANTS["b"], 0, d_in, d_v, d_joint)
    init_params(blk.params, 0.5, seed)
    return blk


def example_like(model, seed=0):
    from mrn.data import ToyVqaExample, Scene
    rng = np.random.default_rng(seed)
    size = model.cnn.config.image_size
    return ToyVqaExample(
        image=rng.uniform(0, 1, (3, size, size)), question=[1, 3, 2],
        question_text="q", answer="yes", answer_id=0, answer_type="Y/N",
        humans=["yes"] * 10, candidates=list(range(4)), caption="",
        split="val", scene=Scene([]))


# ---------------------------------------------------------------------------
# attention_effect_loss

def test_loss_zero_when_mask_saturated():
    blk = small_block()
    blk.params["w_q"].data[:] = 0.0
    blk.params["b_q"].data[:] = 25.0   # tanh(25) rounds to exactly 1.0
    rng = np.random.default_rng(1)
    q = Tensor(rng.standard_normal((1, 4)))
    v = Tensor(rng.standard_normal((1, 5)))
    assert attention_effect_loss(q, v, blk).item() == 0.0


def test_loss_equals_half_norm_when_mask_zero():
    blk = small_block(seed=2)
    blk.params["b_q"].data[:] = 0.0
    q = Tensor(np.zeros((1, 4)))
    v = Tensor(np.random.default_rng(3).standard_normal((1, 5)))
    vis = visual_embedding(v, blk).data
    assert attention_effect_loss(q, v, blk).item() == \
        pytest.approx(0.5 * np.sum(vis ** 2), rel=1e-14)


def test_loss_scalar_oracle():
    blk = small_block(seed=4)
    rng = np.random.default_rng(5)
    q = Tensor(rng.standard_normal((1, 4)))
    v = Tensor(rng.standard_normal((1, 5)))
    vis = visual_embedding(v, blk).data[0]
    f = joint_residual(q, v, blk).data[0]
    expect = 0.5 * sum((vis[i] - f[i]) ** 2 for i in range(5))
    assert attention_effect_loss(q, v, blk).item() == \
        pytest.approx(expect, rel=1e-14)


# ---------------------------------------------------------------------------
# attention_gradient

@pytest.fixture(scope="module")
def model():
    return tiny_model(seed=6)


def oracle_loss(img, q, model, block_index):
    """Independent forward-only evaluation of the block's attention loss,
    with the residual term frozen at the base image."""
    from mrn.model import block_forward
    v = cnn_forward(Tensor(np.asarray(img)[None]), model.cnn, freeze=True)
    h = q
    vshort = None
    for blk in model.mrn.blocks[:block_index - 1]:
        h, vshort = block_forward(h, v, blk, vshort)
    block = model.mrn.blocks[block_index - 1]
    f0 = joint_residual(h, v, block).data
    return v, h, f0


@pytest.mark.parametrize("variant, l", list(itertools.product(VARIANTS,
                                                               (1, 2, 3))))
def test_gradient_matches_directional_derivatives(variant, l):
    model = tiny_model(seed=6, variant=variant)
    rng = np.random.default_rng(7)
    img = rng.uniform(0, 1, (3, 8, 8))
    ex = example_like(model, seed=8)
    ex.image = img
    from mrn.encoders import QuestionBatch, gru_forward
    q = gru_forward(QuestionBatch.pad([ex.question]), model.gru)
    grad = attention_gradient_for(img, q, model)[l - 1]
    # frozen residual from the base image
    _, h_base, f0 = oracle_loss(img, q, model, l)
    block = model.mrn.blocks[l - 1]

    def loss_at(image):
        v = cnn_forward(Tensor(image[None]), model.cnn, freeze=True)
        vis = visual_embedding(v, block).data
        return 0.5 * np.sum((vis - f0) ** 2)

    eps = 1e-5
    for _ in range(20):
        d = rng.standard_normal(img.shape)
        d /= np.linalg.norm(d)
        numeric = (loss_at(img + eps * d) - loss_at(img - eps * d)) / (2 * eps)
        analytic = float(np.sum(grad * d))
        denom = max(abs(numeric), abs(analytic), 1e-8)
        assert abs(numeric - analytic) / denom < 1e-3


def test_saturated_mask_zero_gradient(model):
    import copy
    m = tiny_model(seed=6)
    blk = m.mrn.blocks[0]
    blk.params["w_q"].data[:] = 0.0
    blk.params["b_q"].data[:] = 25.0
    ex = example_like(m, seed=9)
    raw = attention_gradient(ex, m, 1)
    assert np.all(raw == 0.0)


def test_gradients_differ_across_blocks(model):
    ex = example_like(model, seed=10)
    grads = [attention_gradient(ex, model, l) for l in (1, 2, 3)]
    for i in range(3):
        assert np.all(np.isfinite(grads[i]))
    assert np.max(np.abs(grads[0] - grads[1])) > 1e-12
    assert np.max(np.abs(grads[1] - grads[2])) > 1e-12


def test_block_index_out_of_range(model):
    ex = example_like(model)
    with pytest.raises(IndexError):
        attention_gradient(ex, model, 0)
    with pytest.raises(IndexError):
        attention_gradient(ex, model, 4)


def test_constant_residual_differs_from_full_gradient(model):
    # freezing the residual must change the pixel gradient whenever the
    # mask is not saturated
    ex = example_like(model, seed=11)
    from mrn.encoders import QuestionBatch, gru_forward
    q = gru_forward(QuestionBatch.pad([ex.question]), model.gru)
    frozen = attention_gradient_for(ex.image, q, model)[0]
    # full gradient: residual stays in the graph
    leaf = Tensor(ex.image[None].copy(), requires_grad=True)
    v = cnn_forward(leaf, model.cnn, freeze=True)
    block = model.mrn.blocks[0]
    vis = visual_embedding(v, block)
    res = joint_residual(q.detach(), v, block)
    diff = ad.sub(vis, res)
    ad.mul(Tensor(0.5), ad.tsum(ad.mul(diff, diff))).backward()
    full = leaf.grad[0]
    assert np.max(np.abs(full - frozen)) > 1e-10


# ---------------------------------------------------------------------------
# heatmaps

def test_constant_saliency_empty_mask():
    hm = render_heatmap(np.full((3, 4, 4), 0.25))
    assert hm.threshold == pytest.approx(3 * 0.25)
    assert not hm.mask.any()


def test_single_spike_selected():
    raw = np.zeros((1, 4, 4))
    raw[0, 2, 1] = 1.0
    hm = render_heatmap(raw)
    n = 16
    mean = 1 / n
    std = np.sqrt((1 - mean) ** 2 / n + (n - 1) * mean ** 2 / n)
    assert hm.threshold == pytest.approx(mean + std, rel=1e-12)
    assert hm.mask.sum() == 1 and hm.mask[2, 1]


def test_saliency_nonnegative_and_channel_summed():
    rng = np.random.default_rng(12)
    raw = rng.standard_normal((3, 5, 5))
    hm = render_heatmap(raw)
    assert np.all(hm.saliency >= 0)
    assert np.allclose(hm.saliency, np.abs(raw).sum(axis=0))


def test_mask_never_covers_everything():
    rng = np.random.default_rng(13)
    for _ in range(20):
        raw = rng.standard_normal((3, 6, 6))
        hm = render_heatmap(raw)
        assert hm.mask.sum() < hm.mask.size


def test_overlay_brightens_only_masked():
    img = np.full((3, 2, 2), 0.8)
    mask = np.array([[True, False], [False, False]])
    out = overlay_image(img, mask)
    assert out[0, 0, 0] == pytest.approx(0.8)
    assert out[0, 0, 1] == pytest.approx(0.8 * 0.35)


# ---------------------------------------------------------------------------
# image files and the full sequence

def read_pnm(path):
    with open(path, "rb") as f:
        magic = f.readline().strip()
        w, h = map(int, f.readline().split())
        maxval = int(f.readline())
        data = np.frombuffer(f.read(), dtype=np.uint8)
    return magic, w, h, maxval, data


def test_write_pgm_round_trip(tmp_path):
    gray = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = os.path.join(tmp_path, "x.pgm")
    write_pgm(path, gray)
    magic, w, h, maxval, data = read_pnm(path)
    assert magic == b"P5" and (w, h, maxval) == (2, 2, 255)
    assert data[2] == 255  # max-normalized peak


def test_write_ppm_round_trip(tmp_path):
    rgb = np.zeros((3, 1, 2))
    rgb[0, 0, 0] = 1.0
    path = os.path.join(tmp_path, "x.ppm")
    write_ppm(path, rgb)
    magic, w, h, maxval, data = read_pnm(path)
    assert magic == b"P6" and (w, h) == (2, 1)
    assert list(data) == [255, 0, 0, 0, 0, 0]


def test_visualize_sequence_writes_all_blocks(tmp_path, model):
    ex = example_like(model, seed=14)
    heatmaps, manifest_path = visualize_sequence(ex, model, str(tmp_path))
    assert len(heatmaps) == 3
    manifest = json.load(open(manifest_path))
    assert set(manifest["blocks"]) == {"1", "2", "3"}
    for entry in manifest["blocks"].values():
        assert os.path.exists(entry["saliency"])
        assert os.path.exists(entry["overlay"])
    assert os.path.exists(manifest["composite"])
    for hm in heatmaps:
        assert np.all(np.isfinite(hm.saliency))


def test_visualize_sequence_deterministic(tmp_path, model):
    ex = example_like(model, seed=15)
    h1, _ = visualize_sequence(ex, model, os.path.join(tmp_path, "a"))
    h2, _ = visualize_sequence(ex, model, os.path.join(tmp_path, "b"))
    for a, b in zip(h1, h2):
        assert np.array_equal(a.raw, b.raw)
        assert np.array_equal(a.mask, b.mask)


def test_visualize_sequence_leaves_parameter_grads_unset(tmp_path):
    m = tiny_model(seed=6)
    visualize_sequence(example_like(m, seed=16), m, str(tmp_path))
    assert {name: t.grad for name, t in m.named_parameters().items()
            if t.grad is not None} == {}


def test_visualize_sequence_one_cnn_forward_one_backward(tmp_path, model,
                                                         monkeypatch):
    calls = {"cnn_forward": 0, "backward": 0}
    forward, backward = visualization.cnn_forward, Tensor.backward

    def counted_cnn_forward(*args, **kwargs):
        calls["cnn_forward"] += 1
        return forward(*args, **kwargs)

    def counted_backward(self):
        calls["backward"] += 1
        return backward(self)

    monkeypatch.setattr(visualization, "cnn_forward", counted_cnn_forward)
    monkeypatch.setattr(Tensor, "backward", counted_backward)
    heatmaps, _ = visualize_sequence(example_like(model, seed=17), model,
                                     str(tmp_path))
    assert len(heatmaps) == 3
    assert calls == {"cnn_forward": 1, "backward": 1}


def test_visualize_sequence_asks_conv_for_no_weight_gradient(tmp_path, model,
                                                             monkeypatch):
    asked = []
    real = kernels.conv2d_backward

    def spy(xp, w, gy, need_gx=True, need_gw=True):
        asked.append((need_gx, need_gw))
        return real(xp, w, gy, need_gx, need_gw)

    monkeypatch.setattr(kernels, "conv2d_backward", spy)
    visualize_sequence(example_like(model, seed=18), model, str(tmp_path))
    assert asked == [(True, False), (True, False)]


# what visualize_sequence writes for a three-block model
OUTPUT_FILES = ["manifest.json", "original.ppm", "composite.ppm"] + [
    f"block{l}_{kind}" for l in (1, 2, 3)
    for kind in ("saliency.pgm", "overlay.ppm")]


def test_visualize_sequence_rewrites_files_without_truncating(tmp_path, model,
                                                              monkeypatch):
    opened = []
    real = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((os.path.basename(path), flags))
        return real(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    visualize_sequence(example_like(model, seed=19), model, str(tmp_path))
    assert sorted(name for name, _ in opened) == sorted(OUTPUT_FILES)
    assert not any(flags & os.O_TRUNC for _, flags in opened)


def test_shorter_manifest_leaves_no_stale_tail(tmp_path, model):
    out = str(tmp_path)
    ex = example_like(model, seed=20)
    ex.question_text = "what color is the " + "very " * 50 + "large circle"
    visualize_sequence(ex, model, out)
    ex.question_text = "q"
    _, manifest_path = visualize_sequence(ex, model, out)
    files = {l: {"saliency": os.path.join(out, f"block{l}_saliency.pgm"),
                 "overlay": os.path.join(out, f"block{l}_overlay.ppm")}
             for l in ("1", "2", "3")}
    want = {"question": "q", "blocks": files,
            "original": os.path.join(out, "original.ppm"),
            "composite": os.path.join(out, "composite.ppm")}
    with open(manifest_path, "rb") as f:
        assert f.read() == json.dumps(want, indent=2, sort_keys=True).encode()


def test_image_files_hold_header_and_pixels_only(tmp_path, model,
                                                monkeypatch):
    out = str(tmp_path)
    ex = example_like(model, seed=21)
    names = OUTPUT_FILES[1:]
    for name in names:  # longer old contents must not survive the rewrite
        with open(os.path.join(out, name), "wb") as f:
            f.write(b"\xff" * 100_000)
    real_write = os.write
    # short writes, as a pipe or a signal may cause, must be continued
    monkeypatch.setattr(os, "write",
                        lambda fd, data: real_write(fd, data[:50]))
    heatmaps, _ = visualize_sequence(ex, model, out)
    monkeypatch.undo()

    def ppm(rgb):
        pix = (np.clip(rgb, 0, 1) * 255).round().astype(np.uint8)
        _, h, w = pix.shape
        return f"P6\n{w} {h}\n255\n".encode() + \
            pix.transpose(1, 2, 0).tobytes()

    overlays = [overlay_image(ex.image, hm.mask) for hm in heatmaps]
    want = {"original.ppm": ppm(ex.image),
            "composite.ppm": ppm(np.concatenate([ex.image] + overlays,
                                                axis=2))}
    for l, (hm, over) in enumerate(zip(heatmaps, overlays), start=1):
        gray = np.clip(hm.saliency / hm.saliency.max() * 255, 0, 255)
        h, w = gray.shape
        want[f"block{l}_saliency.pgm"] = f"P5\n{w} {h}\n255\n".encode() + \
            gray.astype(np.uint8).tobytes()
        want[f"block{l}_overlay.ppm"] = ppm(over)
    for name in names:
        with open(os.path.join(out, name), "rb") as f:
            assert f.read() == want[name], name


def test_visual_embedding_once_per_block_loss(tmp_path, model, monkeypatch):
    from mrn import model as model_mod
    calls = []
    real = model_mod.visual_embedding

    def counted(v, block):
        calls.append(block.index)
        return real(v, block)

    monkeypatch.setattr(model_mod, "visual_embedding", counted)
    monkeypatch.setattr(visualization, "visual_embedding", counted)
    visualize_sequence(example_like(model, seed=22), model, str(tmp_path))
    # L block losses plus the L-1 block forwards that feed blocks 2..L
    n_blocks = len(model.mrn.blocks)
    assert len(calls) == 2 * n_blocks - 1
