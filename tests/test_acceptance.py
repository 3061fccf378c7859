"""Release acceptance suite: the eight criteria, each with its stated
tolerance and time budget. Every test prints one ``ACCEPTANCE n ...: PASS``
line on success (run with ``-s`` to see them live).

The qualitative criteria (6 and 7) run the pinned toy configuration: dataset
seed 7 / 900 examples, variant sweeps at 1200 RMSProp iterations, lr 3e-3,
dropout 0.1, d_joint 64 — identical to the CLI defaults. They assert
orderings only, never absolute accuracies.
"""

import time

import numpy as np
import pytest

from mrn import autodiff as ad
from mrn import data as data_mod
from mrn import evaluation, training
from mrn.autodiff import Tensor
from mrn.encoders import QuestionBatch, StepCounter, gru_forward, \
    gru_forward_trimzero
from mrn.gradcheck import check_full_model, check_tensor_grad, tiny_model
from mrn.model import ModelDims, MrnModel, mrn_forward, visual_embedding
from mrn.training import TrainConfig, init_params
from mrn.visualization import attention_gradient, attention_gradient_for, \
    render_heatmap

# most of the suite's wall time; `pytest -m "not slow"` skips this file
pytestmark = pytest.mark.slow

# pinned toy configuration shared by criteria 6 and 7 (mirrors CLI defaults)
PIN_SEED = 7
PIN_N = 900
PIN_ITERS = 1200
PIN_LR = 3e-3
PIN_DROPOUT = 0.1
PIN_DIM = 64


def announce(n, label):
    print(f"\nACCEPTANCE {n} ({label}): PASS")


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, \
            f"time budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
        return elapsed


# ---------------------------------------------------------------------------
# 1. Gradient fidelity

def test_acceptance_1_gradient_fidelity():
    budget = Budget(60)
    tol = 1e-4
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((3, 4))
    sq = rng.standard_normal((4, 4))
    b = ad.Tensor(rng.standard_normal((3, 4)))
    ops = {
        "add": lambda t: ad.tsum(ad.add(t, b)),
        "sub": lambda t: ad.tsum(ad.sub(t, b)),
        "mul": lambda t: ad.tsum(ad.mul(t, b)),
        "tanh": lambda t: ad.tsum(ad.tanh(t)),
        "sigmoid": lambda t: ad.tsum(ad.sigmoid(t)),
        "matmul": lambda t: ad.tsum(ad.matmul(t, ad.Tensor(sq))),
        "add_bias": lambda t, _b=ad.Tensor(rng.standard_normal(4)):
            ad.tsum(ad.add_bias(t, _b)),
        "reshape": lambda t: ad.tsum(ad.mul(ad.reshape(t, (4, 3)),
                                            ad.Tensor(sq[:, :3]))),
        "take_rows": lambda t: ad.tsum(
            ad.take_rows(t, np.array([2, 0, 0, 1]))),
        "concat_rows": lambda t: ad.tsum(ad.concat_rows([t, b])),
        "softmax_cross_entropy": lambda t: ad.softmax_cross_entropy(
            t, np.array([1, 3, 0])),
    }
    for name, build in ops.items():
        err = check_tensor_grad(build, a0)
        assert err < tol, f"{name}: {err:.3e}"
    # conv / pool via small image inputs
    img = rng.standard_normal((2, 2, 5, 5))
    w = ad.Tensor(rng.standard_normal((3, 2, 3, 3)))
    cb = ad.Tensor(rng.standard_normal(3))
    assert check_tensor_grad(
        lambda t: ad.tsum(ad.conv2d(t, w, cb, padding=1)), img) < tol
    assert check_tensor_grad(
        lambda t: ad.tsum(ad.conv2d(ad.Tensor(img), t, cb, padding=1)),
        w.data) < tol
    assert check_tensor_grad(
        lambda t: ad.tsum(ad.avgpool2d(t, 2)),
        rng.standard_normal((2, 2, 4, 4))) < tol
    assert check_tensor_grad(
        lambda t: ad.tsum(ad.conv_tanh_pool(t, w, cb, padding=1)),
        rng.standard_normal((2, 2, 4, 4))) < tol
    wide = ad.Tensor(rng.standard_normal((2, 2, 4, 6)))
    assert check_tensor_grad(
        lambda t: ad.tsum(ad.conv_tanh_pool(wide, t, cb, padding=1)),
        w.data) < tol
    # full L=3 variant-(b) VQA model, every parameter tensor
    results = check_full_model(seed=0)
    assert len(results) > 30
    worst = max(err for _, err in results)
    assert worst < tol, f"full model worst rel err {worst:.3e}"
    elapsed = budget.check()
    announce(1, f"gradient fidelity, worst={worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Eq. 6 equivalence (recursive vs unrolled cascade, biases at zero)

def unrolled_cascade(model, q, v):
    """Independent straight-line cascade: product of shortcut maps applied
    to q, plus each block's residual pushed through the remaining maps."""
    ws = [blk.params["w_qs"].data for blk in model.blocks]
    hs, fs = [q], []
    for blk in model.blocks:
        p = blk.params
        mask = np.tanh(hs[-1] @ p["w_q"].data)
        vis = np.tanh(np.tanh(v @ p["w_v1"].data) @ p["w_v2"].data)
        fs.append(mask * vis)
        hs.append(hs[-1] @ p["w_qs"].data + fs[-1])
    total = q
    for w in ws:
        total = total @ w
    for l, f in enumerate(fs):
        term = f
        for w in ws[l + 1:]:
            term = term @ w
        total = total + term
    return total


def test_acceptance_2_cascaded_equivalence():
    budget = Budget(5)
    worst = 0.0
    for n_blocks in (1, 2, 3):
        for seed in range(20):
            dims = ModelDims(d_q=3, d_v=4, d_joint=5, n_answers=4,
                             n_blocks=n_blocks)
            model = MrnModel("b", dims)
            # biases stay at zero: the bias-free cascade of Eq. 6
            init_params({k: t for k, t in model.named_parameters().items()
                         if t.ndim == 2}, 0.5, seed)
            rng = np.random.default_rng(1000 + seed)
            q = rng.standard_normal((2, 3))
            v = rng.standard_normal((2, 4))
            h, _ = mrn_forward(Tensor(q), Tensor(v), model)
            diff = np.max(np.abs(h.data - unrolled_cascade(model, q, v)))
            worst = max(worst, diff)
            assert diff < 1e-9
    elapsed = budget.check()
    announce(2, f"Eq.6 equivalence, worst diff={worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. TrimZero equivalence

def test_acceptance_3_trimzero_equivalence():
    budget = Budget(30)
    from mrn.encoders import GruEncoder
    enc = GruEncoder(vocab_size=11, d_emb=5, d_hidden=6)
    init_params(enc.params, 0.4, 0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(100):
        bsz = int(rng.integers(2, 9))
        maxlen = int(rng.integers(2, 9))
        lengths = rng.integers(1, maxlen + 1, size=bsz)
        lengths[rng.integers(bsz)] = maxlen  # keep maxlen honest
        tokens = np.zeros((bsz, maxlen), dtype=np.int64)
        for i, n in enumerate(lengths):
            tokens[i, :n] = rng.integers(1, 11, size=n)
        batch = QuestionBatch(tokens, lengths)
        c_naive, c_trim = StepCounter(), StepCounter()
        h_naive = gru_forward(batch, enc, counter=c_naive)
        h_trim = gru_forward_trimzero(batch, enc, counter=c_trim)
        diff = np.max(np.abs(h_naive.data - h_trim.data))
        worst = max(worst, diff)
        assert diff < 1e-12
        assert c_naive.row_steps == bsz * maxlen
        assert c_trim.row_steps == int(lengths.sum())
        if lengths.sum() < bsz * maxlen:  # padding exists
            assert c_trim.row_steps < c_naive.row_steps
    elapsed = budget.check()
    announce(3, f"TrimZero equivalence, worst diff={worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# pinned dataset + trained models shared by criteria 4, 6, 7

@pytest.fixture(scope="module")
def pinned_ds():
    return data_mod.generate(PIN_SEED, PIN_N)


@pytest.fixture(scope="module")
def ablation(pinned_ds):
    """The pinned sweep backing criterion 6; ~9 minutes on 2 CPUs."""
    ds = pinned_ds
    t0 = time.monotonic()
    cfg = TrainConfig(batch_size=32, iterations=PIN_ITERS,
                      learning_rate=PIN_LR, dropout_rate=PIN_DROPOUT,
                      seed=PIN_SEED, eval_every=PIN_ITERS)
    rows = {}
    models = {}
    for row in training.ablation_sweep(ds, cfg, PIN_DIM, PIN_DIM):
        if row["sweep"] == "depth":
            key = f"depth_{row['blocks']}"
        else:
            key = f"{row['sweep']}_{row['variant']}"
        rows[key] = row["report"].overall
        models[key] = row["model"]
    rows["depth_3"] = rows["variant_b"]
    rows["elapsed"] = time.monotonic() - t0
    return rows, models


def test_acceptance_4_metric_oracle(ablation, pinned_ds):
    budget = Budget(5)
    for k in range(11):
        humans = ["cat"] * k + ["dog"] * (10 - k)
        assert evaluation.vqa_accuracy("cat", humans) == min(k / 3, 1.0)
    # MC >= OE on a toy-trained model (candidates contain ground truth)
    _, models = ablation
    model = models["variant_b"]
    ds = pinned_ds
    test_set = ds.split("test")
    oe = evaluation.evaluate(model, test_set, "oe", False, ds.answer_vocab)
    mc = evaluation.evaluate(model, test_set, "mc", False, ds.answer_vocab)
    assert mc.overall >= oe.overall
    elapsed = budget.check()
    announce(4, f"metric oracle, mc={mc.overall:.3f} >= oe={oe.overall:.3f}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. visualization fidelity

def test_acceptance_5_visualization_fidelity():
    budget = Budget(120)
    model = tiny_model(seed=6)
    rng = np.random.default_rng(7)
    img = rng.uniform(0, 1, (3, 8, 8))
    tokens = np.array([[1, 3, 2]])
    q = gru_forward(QuestionBatch(tokens, np.array([3])), model.gru)
    block_index = 2
    grad = attention_gradient_for(img, q, model)[block_index - 1]
    # directional-derivative oracle: forward-only loss with frozen residual
    from mrn.encoders import cnn_forward
    from mrn.model import block_forward, joint_residual
    v0 = cnn_forward(Tensor(img[None]), model.cnn, freeze=True)
    h = q
    vshort = None
    for blk in model.mrn.blocks[:block_index - 1]:
        h, vshort = block_forward(h, v0, blk, vshort)
    block = model.mrn.blocks[block_index - 1]
    f0 = joint_residual(h, v0, block).data

    def loss_at(image):
        v = cnn_forward(Tensor(image[None]), model.cnn, freeze=True)
        vis = visual_embedding(v, block).data
        return 0.5 * np.sum((vis - f0) ** 2)

    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(img.shape)
        d /= np.linalg.norm(d)
        numeric = (loss_at(img + eps * d) - loss_at(img - eps * d)) / (2 * eps)
        analytic = float(np.sum(grad * d))
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-3
    # saturated question mask -> exactly zero pixel gradient
    sat = tiny_model(seed=6)
    sat.mrn.blocks[0].params["w_q"].data[:] = 0.0
    sat.mrn.blocks[0].params["b_q"].data[:] = 25.0
    from mrn.data import Scene, ToyVqaExample
    ex = ToyVqaExample(image=img, question=[1, 3, 2], question_text="q",
                       answer="yes", answer_id=0, answer_type="Y/N",
                       humans=["yes"] * 10, candidates=[0, 1], caption="",
                       split="val", scene=Scene([]))
    assert np.all(attention_gradient(ex, sat, 1) == 0.0)
    # threshold is strictly mean + std
    raw = np.zeros((1, 4, 4))
    raw[0, 1, 1] = 1.0
    hm = render_heatmap(raw)
    s = np.abs(raw).sum(axis=0)
    assert hm.threshold == pytest.approx(s.mean() + s.std(), rel=1e-12)
    assert np.array_equal(hm.mask, s > hm.threshold)
    elapsed = budget.check()
    announce(5, f"visualization fidelity, worst rel err={worst:.1e}, "
             f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. qualitative ablation orderings (pinned seed, default toy config)

def test_acceptance_6_ablation_orderings(ablation):
    rows, _ = ablation
    variant_scores = sorted(
        (rows[f"variant_{v}"] for v in "abcde"), reverse=True)
    # (i) variant (b) at L=3 ranks top-2 among the five variants
    assert rows["variant_b"] >= variant_scores[1]
    # (ii) depth: L=3 at least matches L=1
    assert rows["depth_3"] >= rows["depth_1"]
    # (iii) shortcut: MRN >= MN at equal parameter budget
    assert rows["budget_b"] >= rows["budget_mn"]
    assert rows["elapsed"] < 30 * 60
    announce(6, "ablation orderings, "
             f"b={rows['variant_b']:.4f} (top2 cut {variant_scores[1]:.4f}), "
             f"L3={rows['depth_3']:.4f} >= L1={rows['depth_1']:.4f}, "
             f"mrn={rows['budget_b']:.4f} >= mn={rows['budget_mn']:.4f}, "
             f"{rows['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# 7. caption postprocessing (pinned seed, directional claim)

def test_acceptance_7_postprocess_directional(ablation, pinned_ds):
    budget = Budget(120)
    _, models = ablation
    model = models["variant_b"]
    ds = pinned_ds
    vocab = ds.answer_vocab
    changed_non_other = 0
    other_plain, other_post = [], []
    for e in ds.split("val") + ds.split("test"):
        p0 = evaluation.predict(model, e, "oe", postprocess=False, vocab=vocab)
        p1 = evaluation.predict(model, e, "oe", postprocess=True, vocab=vocab)
        if e.answer_type == "Other":
            other_plain.append(evaluation.vqa_accuracy(vocab[p0], e.humans))
            other_post.append(evaluation.vqa_accuracy(vocab[p1], e.humans))
        elif p0 != p1:
            changed_non_other += 1
    assert changed_non_other == 0
    assert np.mean(other_post) >= np.mean(other_plain)
    elapsed = budget.check()
    announce(7, f"postprocess directional, other {np.mean(other_plain):.3f}"
             f" -> {np.mean(other_post):.3f}, non-other changed="
             f"{changed_non_other}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. determinism: byte-identical artifacts

def test_acceptance_8_byte_identical_artifacts(tmp_path):
    import hashlib
    from mrn.cli import main

    gen_dir = tmp_path / "data"
    assert main(["gen", "--seed", "3", "--n", "60", "--out", str(gen_dir)]) == 0
    data = str(gen_dir / "dataset.mrnd")
    sums = []
    for name in ("run1", "run2"):
        out = str(tmp_path / name)
        rc = main(["train", "--data", data, "--out", out, "--seed", "5",
                   "--iters", "12", "--batch", "4", "--dim", "16",
                   "--d-q", "8", "--d-v", "16", "--d-emb", "4",
                   "--blocks", "2"])
        assert rc == 0
        digest = []
        for artifact in ("model.ckpt", "metrics.csv"):
            blob = open(f"{out}/{artifact}", "rb").read()
            digest.append(hashlib.sha256(blob).hexdigest())
        sums.append(tuple(digest))
    assert sums[0] == sums[1]
    announce(8, f"determinism, checkpoint sha {sums[0][0][:12]}... matches")
