import json
import os

import numpy as np
import pytest

from mrn import autodiff as ad
from mrn.autodiff import Tensor
from mrn.model import ConfigError, LearningBlock, ModelDims, MrnModel, \
    VARIANTS, block_forward, joint_residual, mrn_forward, param_count, \
    solve_dim_for_budget
from mrn.training import init_params
from mrn.vqa import VqaModel, load_checkpoint, save_checkpoint


def make_model(variant="b", n_blocks=3, d_q=3, d_v=4, d_joint=5, n_answers=4,
               use_bias=True, seed=0, scale=0.5):
    dims = ModelDims(d_q=d_q, d_v=d_v, d_joint=d_joint, n_answers=n_answers,
                     n_blocks=n_blocks)
    model = MrnModel(variant, dims, use_bias)
    init_params(model.named_parameters(), scale, seed)
    return model


def rand_qv(model, rng, bsz=2):
    q = Tensor(rng.standard_normal((bsz, model.dims.d_q)))
    v = Tensor(rng.standard_normal((bsz, model.dims.d_v)))
    return q, v


# ---------------------------------------------------------------------------
# joint_residual

def test_residual_zero_question_zero_bias():
    model = make_model(use_bias=False)
    blk = model.blocks[0]
    q = Tensor(np.zeros((1, 3)))
    v = Tensor(np.random.default_rng(0).standard_normal((1, 4)))
    out = joint_residual(q, v, blk)
    assert np.max(np.abs(out.data)) == 0.0


def test_residual_zero_weights():
    model = make_model()
    blk = model.blocks[0]
    for t in blk.params.values():
        t.data[:] = 0.0
    rng = np.random.default_rng(1)
    q = Tensor(rng.standard_normal((1, 3)))
    v = Tensor(rng.standard_normal((1, 4)))
    assert np.max(np.abs(joint_residual(q, v, blk).data)) == 0.0


def test_residual_hand_scalar_oracle():
    # 2-dim instance with identity maps, checked by scalar tanh arithmetic
    model = make_model(variant="b", d_q=2, d_v=2, d_joint=2, use_bias=False)
    blk = model.blocks[0]
    eye = np.eye(2)
    for name in ("w_q", "w_v1", "w_v2"):
        blk.params[name].data = eye.copy()
    q = np.array([0.5, -0.5])
    v = np.array([1.0, 1.0])
    out = joint_residual(Tensor(q[None]), Tensor(v[None]), blk).data[0]
    import math
    for i in range(2):
        expect = math.tanh(q[i]) * math.tanh(math.tanh(v[i]))
        assert out[i] == pytest.approx(expect, abs=1e-15)


def test_residual_range_open_interval():
    rng = np.random.default_rng(2)
    for variant in VARIANTS:
        model = make_model(variant, seed=3, scale=2.0)
        q, v = rand_qv(model, rng, bsz=8)
        out = joint_residual(q, v, model.blocks[0])
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)


# ---------------------------------------------------------------------------
# block_forward

def test_block_pure_shortcut_when_residual_zero():
    model = make_model("b")
    blk = model.blocks[0]
    for name in ("w_q", "b_q", "w_v1", "b_v1", "w_v2", "b_v2"):
        blk.params[name].data[:] = 0.0
    rng = np.random.default_rng(4)
    q, v = rand_qv(model, rng)
    out, _ = block_forward(q, v, blk)
    expect = q.data @ blk.params["w_qs"].data + blk.params["b_qs"].data
    assert np.max(np.abs(out.data - expect)) < 1e-15


def test_variant_d_identity_shortcut_block2():
    model = make_model("d", d_q=5)
    blk = model.blocks[1]
    for t in blk.params.values():
        t.data[:] = 0.0
    rng = np.random.default_rng(5)
    q = Tensor(rng.standard_normal((2, 5)))
    v = Tensor(rng.standard_normal((2, 4)))
    out, _ = block_forward(q, v, blk)
    assert np.array_equal(out.data, q.data)


def test_variant_d_dimension_error():
    with pytest.raises(ConfigError):
        LearningBlock(VARIANTS["d"], index=1, d_in=3, d_v=4, d_joint=5)


def test_block_forward_vs_straightline_reimplementation():
    # independent straight-line numpy oracle for variant (b)
    model = make_model("b", seed=6)
    blk = model.blocks[0]
    rng = np.random.default_rng(7)
    q, v = rand_qv(model, rng)
    out, _ = block_forward(q, v, blk)
    p = {k: t.data for k, t in blk.params.items()}
    mask = np.tanh(q.data @ p["w_q"] + p["b_q"])
    vis = np.tanh(np.tanh(v.data @ p["w_v1"] + p["b_v1"]) @ p["w_v2"]
                  + p["b_v2"])
    expect = q.data @ p["w_qs"] + p["b_qs"] + mask * vis
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_variant_e_visual_shortcut_carried():
    model = make_model("e", n_blocks=2, seed=8)
    rng = np.random.default_rng(9)
    q, v = rand_qv(model, rng)
    out1, vshort = block_forward(q, v, model.blocks[0])
    assert vshort is not None
    # block 2 has no visual-shortcut weights of its own
    assert "w_vs" not in model.blocks[1].params
    out2, vshort2 = block_forward(out1, v, model.blocks[1], vshort)
    assert vshort2 is vshort
    with pytest.raises(ConfigError):
        block_forward(out1, v, model.blocks[1])


# ---------------------------------------------------------------------------
# mrn_forward

def test_single_block_reduces_to_block_forward():
    model = make_model("b", n_blocks=1, seed=10)
    rng = np.random.default_rng(11)
    q, v = rand_qv(model, rng)
    h, logits = mrn_forward(q, v, model)
    expect, _ = block_forward(q, v, model.blocks[0])
    assert np.array_equal(h.data, expect.data)
    cls = expect.data @ model.params["cls_w"].data + model.params["cls_b"].data
    assert np.max(np.abs(logits.data - cls)) < 1e-15


def unrolled_oracle(model, q, v):
    """Cascaded form: prod of shortcut maps on q plus per-block transformed
    residuals, computed in straight-line numpy (bias-free models only)."""
    L = len(model.blocks)
    ws = [blk.params["w_qs"].data for blk in model.blocks]
    # residual inputs H_{l-1} still come from the recursion definition
    hs = [q]
    fs = []
    for blk in model.blocks:
        p = blk.params
        mask = np.tanh(hs[-1] @ p["w_q"].data)
        vis = np.tanh(np.tanh(v @ p["w_v1"].data) @ p["w_v2"].data)
        f = mask * vis
        fs.append(f)
        hs.append(hs[-1] @ p["w_qs"].data + f)
    shortcut = q
    for w in ws:
        shortcut = shortcut @ w
    total = shortcut
    for l in range(L):
        term = fs[l]
        for w in ws[l + 1:]:
            term = term @ w
        total = total + term
    return total


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
def test_cascaded_form_equivalence(n_blocks):
    for seed in range(20):
        model = make_model("b", n_blocks=n_blocks, use_bias=False, seed=seed)
        rng = np.random.default_rng(100 + seed)
        q = rng.standard_normal((2, model.dims.d_q))
        v = rng.standard_normal((2, model.dims.d_v))
        h, _ = mrn_forward(Tensor(q), Tensor(v), model)
        assert np.max(np.abs(h.data - unrolled_oracle(model, q, v))) < 1e-9


def test_visual_gradient_accumulates_across_blocks():
    # zeroing any one block's visual path changes the gradient w.r.t. v
    model = make_model("b", n_blocks=3, seed=12)
    rng = np.random.default_rng(13)
    q = Tensor(rng.standard_normal((1, 3)))
    v0 = rng.standard_normal((1, 4))

    def grad_v():
        v = Tensor(v0.copy(), requires_grad=True)
        h, logits = mrn_forward(q, v, model)
        ad.tsum(logits).backward()
        return v.grad.copy()

    base = grad_v()
    for blk in model.blocks:
        saved = blk.params["w_v1"].data.copy()
        blk.params["w_v1"].data[:] = 0.0
        assert np.max(np.abs(grad_v() - base)) > 1e-9
        blk.params["w_v1"].data = saved


def test_shortcut_dominance_logits_ignore_v():
    # zero residual weights: output is linear in q, independent of v
    for variant in ("a", "b", "c", "d"):
        model = make_model(variant, d_q=5, seed=14)
        for blk in model.blocks:
            for name, t in blk.params.items():
                if not name.startswith(("w_qs", "b_qs")):
                    t.data[:] = 0.0
        rng = np.random.default_rng(15)
        q = Tensor(rng.standard_normal((2, 5)))
        _, l1 = mrn_forward(q, Tensor(rng.standard_normal((2, 4))), model)
        _, l2 = mrn_forward(q, Tensor(rng.standard_normal((2, 4))), model)
        assert np.array_equal(l1.data, l2.data)


# ---------------------------------------------------------------------------
# parameter accounting

def enumerate_params(model):
    total = 0
    for blk in model.blocks:
        for t in blk.params.values():
            total += int(np.prod(t.shape))
    for t in model.params.values():
        total += int(np.prod(t.shape))
    return total


def test_param_count_small_enumeration():
    model = make_model("b", n_blocks=1, d_q=2, d_v=2, d_joint=2, n_answers=2)
    # block: w_qs 4+2, w_q 4+2, w_v1 4+2, w_v2 4+2; classifier 4+2
    assert param_count(model) == 30 == enumerate_params(model)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_param_count_matches_enumeration(variant, n_blocks):
    model = make_model(variant, n_blocks=n_blocks, d_q=6 if variant == "d"
                       else 3, d_joint=6)
    assert param_count(model) == enumerate_params(model)


def test_param_count_superlinear_in_dim():
    small = make_model("b", d_joint=8)
    big = make_model("b", d_joint=16)
    assert param_count(big) > 2 * param_count(small)


def test_solve_dim_round_trip():
    target = param_count(make_model("b", d_joint=100))
    assert solve_dim_for_budget("b", 3, 3, 4, 4, target) == 100


def test_solve_dim_monotone_in_budget():
    d1 = solve_dim_for_budget("b", 3, 3, 4, 4, 20000)
    d2 = solve_dim_for_budget("b", 3, 3, 4, 4, 40000)
    assert d2 >= d1


def test_solve_dim_depth_ordering():
    # deeper stacks must settle for a smaller joint dimension
    budget = param_count(make_model("b", n_blocks=3, d_q=32, d_v=64,
                                    d_joint=64, n_answers=20))
    d3 = solve_dim_for_budget("b", 3, 32, 64, 20, budget)
    d1 = solve_dim_for_budget("b", 1, 32, 64, 20, budget)
    assert d3 < d1


def test_solve_dim_mn_vs_mrn_within_2_percent():
    budget = param_count(make_model("b", n_blocks=3, d_q=32, d_v=64,
                                    d_joint=64, n_answers=20))
    for variant in ("b", "mn"):
        dj = solve_dim_for_budget(variant, 3, 32, 64, 20, budget)
        count = param_count(make_model(variant, n_blocks=3, d_q=32, d_v=64,
                                       d_joint=dj, n_answers=20))
        assert abs(count - budget) / budget < 0.02


def test_solve_dim_budget_too_small():
    with pytest.raises(ConfigError):
        solve_dim_for_budget("b", 3, 3, 4, 4, 10)


def test_variant_b_single_block_degenerates_to_joint_model():
    # b with L=1 minus the shortcut = elementwise product of two embedded
    # modalities feeding a classifier; check by parameter-count equality
    model = make_model("mn", n_blocks=1, d_q=3, d_v=4, d_joint=5, n_answers=4)
    d_q, d_v, d_joint, n_ans = 3, 4, 5, 4
    joint_model_params = (
        (d_q + 1) * d_joint                       # question embedding
        + (d_v + 1) * d_joint + (d_joint + 1) * d_joint  # 2-layer visual
        + (d_joint + 1) * n_ans)                  # classifier
    assert param_count(model) == joint_model_params


# ---------------------------------------------------------------------------
# config errors / checkpointing

def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        MrnModel("z")


def test_at_least_one_block():
    with pytest.raises(ConfigError):
        MrnModel("b", ModelDims(n_blocks=0))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    from mrn.encoders import CnnConfig, QuestionBatch
    dims = ModelDims(d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=2)
    cnn = CnnConfig(image_size=8, channels1=2, channels2=3, d_out=5)
    model = VqaModel(vocab_size=6, d_emb=3, variant="e", dims=dims,
                     cnn_config=cnn)
    init_params(model.named_parameters(), 0.08, 42)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    p1 = model.named_parameters()
    p2 = loaded.named_parameters()
    assert sorted(p1) == sorted(p2)
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data)
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, (2, 3, 8, 8))
    batch = QuestionBatch(np.array([[1, 2], [3, 0]]), np.array([2, 1]))
    assert np.array_equal(model.predict_logits(images, batch),
                          loaded.predict_logits(images, batch))


def test_checkpoint_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "junk.ckpt")
    with open(path, "wb") as f:
        f.write(b"NOTACKPT" + b"\0" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep, message", [
    (12, "header length at offset 8 needs 8 bytes, 4 left"),
    (40, r"header at offset 16 needs \d+ bytes, 24 left"),
    (-4, r"parameter \S+ at offset \d+ needs \d+ bytes, \d+ left"),
])
def test_checkpoint_truncated_names_offset(tmp_path, keep, message):
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=1))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:keep])
    with pytest.raises(ValueError, match="truncated checkpoint: " + message) \
            as info:
        load_checkpoint(path)
    assert path in str(info.value)


@pytest.mark.parametrize("header", [b'{"voca', b"\xff\xfe"])
def test_checkpoint_header_not_json(tmp_path, header):
    path = os.path.join(tmp_path, "bad.ckpt")
    with open(path, "wb") as f:
        f.write(b"MRNCKPT1" + len(header).to_bytes(8, "little") + header)
    with pytest.raises(ValueError, match="header at offset 16 is not valid "
                       "JSON") as info:
        load_checkpoint(path)
    assert path in str(info.value)


def _with(header, **fields):
    return {**header, **fields}


def _edit_params(edit):
    def apply(header):
        params = [dict(e) for e in header["params"]]
        edit(params)
        return _with(header, params=params)
    return apply


@pytest.mark.parametrize("edit, message", [
    (lambda h: {"vocab_size": 5}, "missing field 'd_emb'"),
    (lambda h: [h], "not a JSON object"),
    (lambda h: _with(h, d_emb="3"),
     "field 'd_emb' has type str, expected int"),
    (lambda h: _with(h, vocab_size=True), "field 'vocab_size' has type bool"),
    (lambda h: _with(h, use_bias=1), "field 'use_bias' has type int, "
     "expected bool"),
    (lambda h: _with(h, params={}), "field 'params' has type dict"),
    (lambda h: _with(h, dims={**h["dims"], "d_extra": 1}),
     r"field 'dims' has keys \[.*'d_extra'"),
    (lambda h: _with(h, cnn={k: v for k, v in h["cnn"].items()
                             if k != "kernel"}), "field 'cnn' has keys"),
    (lambda h: _with(h, dims={**h["dims"], "n_blocks": 1.0}),
     "field 'dims.n_blocks' has type float"),
    (lambda h: _with(h, variant="zz"), "unknown variant"),
    (_edit_params(lambda p: p[0].update(shape=[1])),
     r"parameter 'cnn.conv1_b' has shape \[1\] in the manifest, \[8\] in "
     "the model"),
    (_edit_params(lambda p: p[0].update(shape=[8.0])),
     "parameter 'cnn.conv1_b' has shape"),
    (_edit_params(lambda p: p[0].update(name="cnn.nope")),
     "manifest names unknown parameter 'cnn.nope'"),
    (_edit_params(lambda p: p.__setitem__(1, p[0])),
     "parameter 'cnn.conv1_b' appears twice"),
    (_edit_params(lambda p: p.pop()),
     "parameter 'mrn.cls_w' is missing from the manifest"),
    (_edit_params(lambda p: p.__setitem__(0, "cnn.conv1_b")),
     "manifest entry 'cnn.conv1_b' needs a name and a shape"),
])
def test_checkpoint_bad_header_names_field(tmp_path, edit, message):
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=1))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    hlen = int.from_bytes(blob[8:16], "little")
    hb = json.dumps(edit(json.loads(blob[16:16 + hlen]))).encode()
    with open(path, "wb") as f:
        f.write(blob[:8] + len(hb).to_bytes(8, "little") + hb
                + blob[16 + hlen:])
    with pytest.raises(ValueError, match="checkpoint header at offset 16: "
                       + message) as info:
        load_checkpoint(path)
    assert path in str(info.value)
