import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mrn
from mrn import autodiff as ad
from mrn import encoders
from mrn.autodiff import Tensor
from mrn.container import FormatError
from mrn.model import ConfigError, LearningBlock, ModelDims, MrnModel, \
    VARIANTS, block_forward, joint_residual, mrn_forward, param_count, \
    solve_dim_for_budget
from mrn.training import init_params
from mrn.vqa import VqaModel, load_checkpoint, save_checkpoint


def make_model(variant="b", n_blocks=3, d_q=3, d_v=4, d_joint=5, n_answers=4,
               zero_biases=False, seed=0, scale=0.5):
    """A model drawn uniform(-scale, scale); with zero_biases only its
    weight matrices are drawn, so it computes the paper's bias-free form."""
    dims = ModelDims(d_q=d_q, d_v=d_v, d_joint=d_joint, n_answers=n_answers,
                     n_blocks=n_blocks)
    model = MrnModel(variant, dims)
    params = model.named_parameters()
    if zero_biases:
        params = {k: t for k, t in params.items() if t.ndim == 2}
    init_params(params, scale, seed)
    return model


def rand_qv(model, rng, bsz=2):
    q = Tensor(rng.standard_normal((bsz, model.dims.d_q)))
    v = Tensor(rng.standard_normal((bsz, model.dims.d_v)))
    return q, v


# ---------------------------------------------------------------------------
# joint_residual

def test_residual_zero_question_zero_bias():
    model = make_model(zero_biases=True)
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
    model = make_model(variant="b", d_q=2, d_v=2, d_joint=2, zero_biases=True)
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
        model = make_model("b", n_blocks=n_blocks, zero_biases=True,
                           seed=seed)
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
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


# a case whose message was reworded keeps its earlier message as its id, so
# every case keeps its name across the rewording
@pytest.mark.parametrize("keep, message", [
    pytest.param(12, "header length at byte 8: needs 8 bytes, 4 left",
                 id="12-header length at offset 8 needs 8 bytes, 4 left"),
    pytest.param(40, r"header at byte 16: needs \d+ bytes, 24 left",
                 id=r"40-header at offset 16 needs \d+ bytes, 24 left"),
    pytest.param(-4, r"parameter \S+ at byte \d+: needs \d+ bytes, \d+ left",
                 id=r"-4-parameter \S+ at offset \d+ needs \d+ bytes, "
                 r"\d+ left"),
])
def test_checkpoint_truncated_names_offset(tmp_path, keep, message):
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=1))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:keep])
    with pytest.raises(FormatError, match="truncated " + message) as info:
        load_checkpoint(path)
    assert str(info.value).endswith(f" left in {path}")


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_checkpoint_non_finite_parameter_names_offset(tmp_path, value):
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=1))
    model.cnn.params["conv1_w"].data[0, 0, 1, 2] = value
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    hlen = int.from_bytes(open(path, "rb").read()[8:16], "little")
    # buffers follow the header in name order; cnn.conv1_b comes first
    offset = 16 + hlen + 8 * model.cnn.params["conv1_b"].data.size
    with pytest.raises(FormatError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"parameter cnn.conv1_w at byte {offset} "
                               f"holds a non-finite value in {path}")


def test_checkpoint_trailing_bytes_name_offset(tmp_path):
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=1))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    end = os.path.getsize(path)
    # a second checkpoint appended to the first
    with open(path, "ab") as f:
        f.write(open(path, "rb").read())
    with pytest.raises(FormatError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"{end} bytes after the last parameter at "
                               f"byte {end} in {path}")


@pytest.mark.parametrize("header", [b'{"voca', b"\xff\xfe"])
def test_checkpoint_header_not_json(tmp_path, header):
    # the byte where json.loads gives up
    offset = 16 + {b'{"voca': 1, b"\xff\xfe": 0}[header]
    path = os.path.join(tmp_path, "bad.ckpt")
    with open(path, "wb") as f:
        f.write(b"MRNCKPT1" + len(header).to_bytes(8, "little") + header)
    with pytest.raises(FormatError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"bad header json at byte {offset} in {path}"


def _with(header, **fields):
    return {**header, **fields}


def _edit_params(edit):
    def apply(header):
        params = [dict(e) for e in header["params"]]
        edit(params)
        return _with(header, params=params)
    return apply


# as above, a reworded case keeps its earlier message as its id
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda h: {"vocab_size": 5},
                 "header is missing field 'd_emb'",
                 id="<lambda>-missing field 'd_emb'"),
    pytest.param(lambda h: [h], "header is not a JSON object",
                 id="<lambda>-not a JSON object"),
    pytest.param(lambda h: _with(h, d_emb="3"),
                 "header field 'd_emb' should be int",
                 id="<lambda>-field 'd_emb' has type str, expected int"),
    pytest.param(lambda h: _with(h, vocab_size=True),
                 "header field 'vocab_size' should be int",
                 id="<lambda>-field 'vocab_size' has type bool"),
    pytest.param(lambda h: _with(h, params={}),
                 "header field 'params' should be list",
                 id="<lambda>-field 'params' has type dict"),
    (lambda h: _with(h, dims={**h["dims"], "d_extra": 1}),
     r"field 'dims' has keys \[.*'d_extra'"),
    (lambda h: _with(h, cnn={k: v for k, v in h["cnn"].items()
                             if k != "kernel"}), "field 'cnn' has keys"),
    pytest.param(lambda h: _with(h, dims={**h["dims"], "n_blocks": 1.0}),
                 "dims field 'n_blocks' should be int",
                 id="<lambda>-field 'dims.n_blocks' has type float"),
    (lambda h: _with(h, variant="zz"), "unknown variant"),
    (_edit_params(lambda p: p[0].update(shape=[1])),
     r"parameter 'cnn.conv1_b' has shape \[1\] in the manifest, \[8\] in "
     "the model"),
    pytest.param(_edit_params(lambda p: p[0].update(shape=[8.0])),
                 "manifest entry 0 field 'shape' should be list of int",
                 id="apply-parameter 'cnn.conv1_b' has shape"),
    (_edit_params(lambda p: p[0].update(name="cnn.nope")),
     "manifest names unknown parameter 'cnn.nope'"),
    (_edit_params(lambda p: p.__setitem__(1, p[0])),
     "parameter 'cnn.conv1_b' appears twice"),
    (_edit_params(lambda p: p.pop()),
     "parameter 'mrn.cls_w' is missing from the manifest"),
    pytest.param(_edit_params(lambda p: p.__setitem__(0, "cnn.conv1_b")),
                 "manifest entry 0 is not a JSON object",
                 id="apply-manifest entry 'cnn.conv1_b' needs a name and a "
                 "shape"),
    # built from the header, this model would not fit in memory
    pytest.param(lambda h: _with(h, dims={**h["dims"], "d_joint": 10**7}),
                 "Unable to allocate", id="d_joint-too-large"),
    # a block holds parameters, so more blocks than entries cannot match
    pytest.param(lambda h: _with(h, dims={**h["dims"], "n_blocks": 10**9}),
                 r"dims field 'n_blocks' is 1000000000, more than the \d+ "
                 "manifest entries", id="n_blocks-beyond-manifest"),
])
def test_checkpoint_bad_header_names_field(tmp_path, edit, message):
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=1))
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    _edit_header(path, edit)
    with pytest.raises(FormatError, match="bad header at byte 16: "
                       + message) as info:
        load_checkpoint(path)
    assert str(info.value).endswith(f" in {path}")


def _edit_header(path, edit):
    """Replace the checkpoint header h at path by edit(h)."""
    blob = open(path, "rb").read()
    hlen = int.from_bytes(blob[8:16], "little")
    hb = json.dumps(edit(json.loads(blob[16:16 + hlen]))).encode()
    with open(path, "wb") as f:
        f.write(blob[:8] + len(hb).to_bytes(8, "little") + hb
                + blob[16 + hlen:])


def test_checkpoint_with_use_bias_true_loads_same_parameters(tmp_path):
    # checkpoints written while biases were optional carry "use_bias": true
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=2))
    init_params(model.named_parameters(), 0.4, 3)
    path = os.path.join(tmp_path, "m.ckpt")
    save_checkpoint(model, path)
    _edit_header(path, lambda h: _with(h, use_bias=True))
    loaded = load_checkpoint(path).named_parameters()
    params = model.named_parameters()
    assert sorted(loaded) == sorted(params)
    for name, t in params.items():
        assert loaded[name].data.tobytes() == t.data.tobytes()


def test_bias_free_checkpoint_names_first_missing_bias(tmp_path, capsys):
    # the layout a model built without block and classifier biases was
    # saved in: "use_bias": false, and no mrn bias in the manifest
    from mrn import container
    from mrn import data as data_mod
    from mrn.cli import main
    from mrn.vqa import CKPT_MAGIC
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=5, d_joint=5, n_answers=4, n_blocks=1))
    params = model.named_parameters()
    names = [n for n in sorted(params)
             if not (n.startswith("mrn.") and params[n].ndim == 1)]
    header = {"vocab_size": 6, "d_emb": 3, "variant": "b", "use_bias": False,
              "dims": vars(model.dims), "cnn": vars(model.cnn.config),
              "params": [{"name": n, "shape": list(params[n].shape)}
                         for n in names]}
    path = str(tmp_path / "m.ckpt")
    container.write(path, CKPT_MAGIC, header, [params[n].data for n in names])
    message = "parameter 'mrn.block1.b_q' is missing from the manifest"
    with pytest.raises(FormatError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"bad header at byte 16: {message} in {path}"
    data = str(tmp_path / "ds.mrnd")
    data_mod.save(data_mod.generate(3, 20), data)
    rc = main(["eval", "--data", data, "--checkpoint", path, "--out",
               str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# fixed_features and its store

def feature_model(seed=0):
    """A model with the default CNN (32x32 images, a 1024 -> 64 linear
    map), the shape whose one-row product rounds unlike its 2-8 row one."""
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=64, d_joint=5, n_answers=4, n_blocks=1))
    init_params(model.named_parameters(), 0.08, seed)
    return model


def random_images(n, seed=0):
    return list(np.random.default_rng(seed).uniform(0, 1, (n, 3, 32, 32)))


@pytest.fixture
def cnn_calls(monkeypatch):
    """The images of every CNN call, as bytes, one list per call."""
    calls = []
    real = encoders.cnn_forward

    def spy(image, cnn, freeze=False):
        calls.append([np.asarray(im).tobytes() for im in image])
        return real(image, cnn, freeze)

    monkeypatch.setattr(encoders, "cnn_forward", spy)
    return calls


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 10))
def test_feature_rows_are_cnn_forward_on_runs_of_the_call(n):
    images = random_images(n, seed=n)
    model = feature_model()
    runs = [encoders.cnn_forward(np.stack(images[i:i + encoders.CNN_RUN]),
                                 model.cnn, freeze=True).data
            for i in range(0, n, encoders.CNN_RUN)]
    cold = model.fixed_features(images)
    assert same_bits(cold, np.concatenate(runs))
    assert cold.shape == (n, 64)
    # images scored before, alone or in other calls, leave the rows alone
    warm = feature_model()
    for im in images:
        warm.fixed_features([im])
    warm.fixed_features(images[::-1] + random_images(3))
    assert same_bits(warm.fixed_features(images), cold)


def test_same_call_twice_runs_the_cnn_once(cnn_calls):
    model = feature_model()
    images = random_images(10)
    first = model.fixed_features(images)
    assert cnn_calls == [[im.tobytes() for im in images[:8]],
                         [im.tobytes() for im in images[8:]]]
    assert same_bits(model.fixed_features(list(images)), first)
    assert len(cnn_calls) == 2
    # the key is the call: other orders and repeats are other calls
    model.fixed_features(images[::-1])
    model.fixed_features(images[:1] * 2)
    assert [len(c) for c in cnn_calls] == [8, 2, 8, 2, 2]


def test_mutating_returned_rows_leaves_the_store_alone(cnn_calls):
    model = feature_model()
    images = random_images(3)
    first = model.fixed_features(images)
    want = first.copy()
    first[:] = 0.0
    assert same_bits(model.fixed_features(images), want)
    assert len(cnn_calls) == 1


def _sub_in_place(t):
    t.data -= 1e-3


def _write_element(t):
    t.data[(0,) * t.ndim] = 0.25


def _replace_array(t):
    t.data = t.data * 1.5


CNN_PARAMS = ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "fc_w", "fc_b")


@pytest.mark.parametrize("edit", [_sub_in_place, _write_element,
                                  _replace_array])
@pytest.mark.parametrize("name", CNN_PARAMS)
def test_any_cnn_weight_change_empties_the_store(name, edit, cnn_calls):
    model = feature_model()
    images = random_images(3)
    before = model.fixed_features(images)
    edit(model.cnn.params[name])
    after = model.fixed_features(images)
    assert len(cnn_calls) == 2
    fresh = feature_model()
    fresh.cnn.params[name].data = model.cnn.params[name].data.copy()
    assert same_bits(after, fresh.fixed_features(images))
    assert not np.array_equal(after, before)


def test_init_params_empties_the_store(cnn_calls):
    model = feature_model(seed=0)
    images = random_images(3)
    model.fixed_features(images)
    init_params(model.named_parameters(), 0.08, 1)
    after = model.fixed_features(images)
    assert len(cnn_calls) == 2
    assert same_bits(after, feature_model(seed=1).fixed_features(images))


def test_signed_zero_flip_empties_the_store(cnn_calls):
    model = feature_model()
    model.cnn.params["fc_b"].data[0] = 0.0
    images = random_images(3)
    model.fixed_features(images)
    model.cnn.params["fc_b"].data[0] = -0.0
    model.fixed_features(images)
    assert len(cnn_calls) == 2


def test_image_edited_in_place_is_recomputed(cnn_calls):
    model = feature_model()
    images = random_images(3)
    before = model.fixed_features(images)
    images[1][0, 0, 0] += 0.5
    after = model.fixed_features(images)
    assert cnn_calls[1] == [im.tobytes() for im in images]
    assert not np.array_equal(after[1], before[1])
    assert same_bits(after, feature_model().fixed_features(images))


def test_float32_image_shares_its_float64_row(cnn_calls):
    model = feature_model()
    image = random_images(1)[0].astype(np.float32)
    v32 = model.fixed_features([image])
    v64 = model.fixed_features([image.astype(np.float64)])
    assert len(cnn_calls) == 1 and same_bits(v32, v64)


def test_wrong_image_shape_still_raises_shape_error():
    model = feature_model()
    images = random_images(3)
    with pytest.raises(ad.ShapeError):
        model.fixed_features([np.zeros((3, 9, 9))])
    # as the second image of a call, or after the images of a stored call
    with pytest.raises(ad.ShapeError, match=r"image 1 has shape \(3, 9, 9\)"):
        model.fixed_features([images[0], np.zeros((3, 9, 9))])
    model.fixed_features(images)
    with pytest.raises(ad.ShapeError, match="image 3"):
        model.fixed_features(images + [np.zeros((3, 16, 64))])
    with pytest.raises(ad.ShapeError):
        model.fixed_features([np.zeros((3, 32, 32, 1))])


def _blas_takes_haswell_kernel():
    """numpy's BLAS is OpenBLAS and the CPU can run its AVX2 kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as f:
            avx2 = "avx2" in f.read().split()
    except OSError:
        return False
    return "openblas" in blas.get("name", "").lower() and avx2


# scores 9 images, then prints each n in 1..9 for which the rows of the
# first n differ from a fresh model's
REPEATED_PREFIXES = """
import numpy as np
from mrn.model import ModelDims
from mrn.training import init_params
from mrn.vqa import VqaModel


def fresh():
    model = VqaModel(vocab_size=6, d_emb=3, dims=ModelDims(
        d_q=4, d_v=64, d_joint=5, n_answers=4, n_blocks=1))
    init_params(model.named_parameters(), 0.08, 0)
    return model


images = list(np.random.default_rng(0).uniform(0, 1, (9, 3, 32, 32)))
model = fresh()
model.fixed_features(images)
for n in range(1, 10):
    a, b = model.fixed_features(images[:n]), fresh().fixed_features(images[:n])
    if not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
        print(n)
"""


@pytest.mark.skipif(not _blas_takes_haswell_kernel(),
                    reason="needs OpenBLAS on a CPU with AVX2")
def test_feature_rows_do_not_depend_on_the_blas_kernel():
    # under OpenBLAS's AVX2 kernel a row of the fc map rounds differently
    # with the rows that share its product, so a call's rows must come
    # from that call alone
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.path.dirname(os.path.dirname(mrn.__file__)))
    proc = subprocess.run([sys.executable, "-c", REPEATED_PREFIXES],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.split() == []
