import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import mrn
from mrn import data as data_mod
from mrn import encoders, kernels, training
from mrn.autodiff import Tensor
from mrn.encoders import CnnConfig, QuestionBatch
from mrn.gradcheck import tiny_batch, tiny_model
from mrn.model import ModelDims
from mrn.training import RMSPROP_DECAY, RMSPROP_EPS, NumericalError, \
    TrainConfig, dropout, init_params, rmsprop_step, train
from mrn.vqa import VqaModel


def pinned_model_and_set():
    """Pinned-shape model (variant b, L=3, d_joint 64), initialized, and the
    train split of a 64-example dataset."""
    ds = data_mod.generate(0, 64)
    dims = ModelDims(d_joint=64, n_answers=len(ds.answer_vocab), n_blocks=3)
    model = VqaModel(vocab_size=len(ds.question_vocab), variant="b",
                     dims=dims)
    init_params(model.named_parameters(), training.INIT_RANGE, 0)
    return model, ds.split("train")


def small_model():
    dims = ModelDims(d_q=8, d_v=8, d_joint=8, n_answers=20, n_blocks=2)
    cnn = CnnConfig(image_size=32, channels1=2, channels2=2, d_out=8)
    return VqaModel(vocab_size=len(data_mod.QUESTION_WORDS), d_emb=4,
                    dims=dims, cnn_config=cnn)


@pytest.fixture(scope="module")
def toy_ds():
    return data_mod.generate(3, 60)


# ---------------------------------------------------------------------------
# init

def test_init_deterministic():
    m1, m2 = small_model(), small_model()
    init_params(m1.named_parameters(), 0.08, 5)
    init_params(m2.named_parameters(), 0.08, 5)
    for name, t in m1.named_parameters().items():
        assert np.array_equal(t.data, m2.named_parameters()[name].data)


def test_init_statistics():
    t = {"w": Tensor(np.zeros(200000), requires_grad=True)}
    init_params(t, 0.08, 0)
    draws = t["w"].data
    assert draws.min() > -0.08 and draws.max() < 0.08
    sigma = 0.08 / np.sqrt(3.0)
    assert abs(draws.mean()) < 3 * sigma / np.sqrt(draws.size)


def test_init_rejects_zero_range():
    with pytest.raises(ValueError):
        init_params({}, 0.0, 0)


# ---------------------------------------------------------------------------
# rmsprop

def test_rmsprop_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    state = {"p": np.array([4.0, 4.0])}
    rmsprop_step({"p": p}, state, lr=0.1)
    assert p.data.tolist() == [1.0, -2.0]
    assert state["p"].tolist() == [RMSPROP_DECAY * 4.0] * 2  # decayed


def test_rmsprop_scalar_hand_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    state = {}
    rmsprop_step({"p": p}, state, lr=0.1)
    s = (1.0 - RMSPROP_DECAY) * 4.0
    expect = 1.0 - 0.1 * 2.0 / (np.sqrt(s) + RMSPROP_EPS)
    assert p.data[0] == pytest.approx(expect, rel=1e-15)


def test_rmsprop_in_place_equals_formula_bitwise():
    rng = np.random.default_rng(3)
    params = {"a": Tensor(rng.standard_normal((4, 3)), requires_grad=True),
              "b": Tensor(rng.standard_normal(5), requires_grad=True)}
    expect = {k: t.data.copy() for k, t in params.items()}
    arrays = {k: t.data for k, t in params.items()}
    state, s_expect = {}, {k: np.zeros_like(t.data) for k, t in params.items()}
    for step in range(20):
        for k, t in params.items():
            # b has no gradient on some steps, which counts as zero
            scale = 10.0 ** (step % 5 - 2)
            t.grad = (None if k == "b" and step % 3 == 0
                      else rng.standard_normal(t.shape) * scale)
            g = np.zeros_like(t.data) if t.grad is None else t.grad
            s_expect[k] = (RMSPROP_DECAY * s_expect[k]
                           + (1.0 - RMSPROP_DECAY) * g * g)
            expect[k] = expect[k] - 0.01 * g / (np.sqrt(s_expect[k])
                                                + RMSPROP_EPS)
        rmsprop_step(params, state, lr=0.01)
        for k, t in params.items():
            assert t.data.tobytes() == expect[k].tobytes()
            assert state[k].tobytes() == s_expect[k].tobytes()
            assert t.data is arrays[k]


def test_rmsprop_constant_gradient_fixed_point():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = {}
    for _ in range(2000):
        p.grad = np.array([3.0])
        before = p.data.copy()
        rmsprop_step({"p": p}, state, lr=0.01)
    # update magnitude approaches lr * g / |g| as s -> g^2
    assert abs(before[0] - p.data[0]) == pytest.approx(0.01, rel=1e-6)


# ---------------------------------------------------------------------------
# dropout

def test_dropout_rate_zero_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_invalid_rate():
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))


def test_dropout_expectation_preserved():
    rng = np.random.default_rng(1)
    x = Tensor(np.ones(200))
    total = np.zeros(200)
    n = 10000
    for _ in range(n):
        total += dropout(x, 0.3, rng).data
    assert abs(total.mean() / n - 1.0) < 0.02


def test_bayesian_mask_reused_across_steps():
    from mrn.training import make_dropout_mask
    mask = make_dropout_mask((2, 4), 0.5, np.random.default_rng(2))
    x = Tensor(np.ones((2, 4)))
    a = dropout(x, 0.5, mask=mask).data
    b = dropout(x, 0.5, mask=mask).data
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# train loop

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(dropout_mode="spicy").validate()


@pytest.mark.parametrize("lr", [-1.0, float("nan"), float("inf")])
def test_bad_learning_rate_rejected_before_any_step(toy_ds, lr):
    model = small_model()
    with pytest.raises(ValueError, match=f"learning rate {lr} must be"):
        train(model, toy_ds.split("train"),
              TrainConfig(batch_size=4, iterations=1, learning_rate=lr))
    assert all(not t.data.any() for t in model.named_parameters().values())


def test_train_step_asks_conv1_for_no_input_gradient(monkeypatch):
    # conv1 reads the image, which needs no gradient; conv2 needs both
    model = tiny_model()
    images, batch, targets = tiny_batch()
    examples = [SimpleNamespace(image=images[i], answer_id=targets[i],
                                question=batch.tokens[i, :batch.lengths[i]])
                for i in range(2)]
    asked = []
    real = kernels.conv2d_backward

    def spy(xp, w, gy, need_gx=True, need_gw=True):
        asked.append((xp.shape[1], need_gx, need_gw))
        return real(xp, w, gy, need_gx, need_gw)

    monkeypatch.setattr(kernels, "conv2d_backward", spy)
    train(model, examples, TrainConfig(batch_size=2, iterations=1),
          initialize=False)
    assert asked == [(model.cnn.config.channels1, True, True),
                     (model.cnn.config.in_channels, False, True)]


def test_batch_32_step_gives_conv_kernels_at_most_one_run(monkeypatch):
    model, train_set = pinned_model_and_set()
    seen = []
    for name in ("conv2d_forward", "conv2d_backward"):
        def spy(xp, *args, real=getattr(kernels, name), name=name, **kw):
            seen.append((name, xp.shape[0]))
            return real(xp, *args, **kw)
        monkeypatch.setattr(kernels, name, spy)
    train(model, train_set, TrainConfig(batch_size=32, iterations=1),
          initialize=False)
    assert max(n for _, n in seen) <= encoders.CNN_RUN < 32
    for name in ("conv2d_forward", "conv2d_backward"):
        # conv1 and conv2 each see the whole batch
        assert sum(n for f, n in seen if f == name) == 2 * 32


def test_two_pinned_train_steps_peak_under_10_mb():
    # conv temporaries for one run of images, not the batch, set the peak:
    # 8.96 MiB in 8-image runs, 11.83 MiB when each conv call takes the
    # whole batch (CNN_RUN = 32)
    model, train_set = pinned_model_and_set()
    tracemalloc.start()
    try:
        train(model, train_set, TrainConfig(batch_size=32, iterations=2),
              initialize=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# twenty 1 MiB arrays allocated and freed, four times over; prints each
# round's minor page faults
FREED_HEAP_ROUNDS = """
import resource
import numpy as np
import mrn

for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(20)]
    del arrays
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_freed_heap_stays_in_the_process():
    # a fresh process, so no earlier test has grown its heap; with glibc's
    # defaults each round maps its 20 MiB back in (about 5100 faults)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(mrn.__file__)))
    proc = subprocess.run([sys.executable, "-c", FREED_HEAP_ROUNDS], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 4
    assert all(f < 500 for f in faults[1:]), faults


@pytest.mark.parametrize("field", ["iterations", "eval_every"])
def test_empty_run_rejected(toy_ds, field):
    config = TrainConfig(batch_size=4, **{field: 0})
    with pytest.raises(ValueError, match=f"{field} 0 must be >= 1"):
        train(small_model(), toy_ds.split("train"), config)


def test_lr_zero_keeps_initial_params(toy_ds):
    model = small_model()
    cfg = TrainConfig(iterations=5, batch_size=4, learning_rate=0.0, seed=9,
                      dropout_rate=0.0, eval_every=100)
    train(model, toy_ds.split("train"), cfg)
    fresh = small_model()
    init_params(fresh.named_parameters(), training.INIT_RANGE, cfg.seed)
    for name, t in fresh.named_parameters().items():
        assert np.array_equal(t.data, model.named_parameters()[name].data)


def test_same_seed_identical_loss_curve(toy_ds):
    losses = []
    for _ in range(2):
        model = small_model()
        cfg = TrainConfig(iterations=8, batch_size=4, seed=11, eval_every=100)
        res = train(model, toy_ds.split("train"), cfg)
        losses.append(res.train_losses)
    assert losses[0] == losses[1]


def test_trained_params_bitwise_deterministic(toy_ds):
    params = []
    for _ in range(2):
        model = small_model()
        cfg = TrainConfig(iterations=6, batch_size=4, seed=12,
                          dropout_mode="bayesian", eval_every=100)
        train(model, toy_ds.split("train"), cfg)
        params.append({k: t.data.copy()
                       for k, t in model.named_parameters().items()})
    for name in params[0]:
        assert np.array_equal(params[0][name], params[1][name])


def test_loss_decreases_early(toy_ds):
    model = small_model()
    cfg = TrainConfig(iterations=100, batch_size=8, learning_rate=3e-3,
                      dropout_rate=0.0, seed=7, eval_every=1000)
    res = train(model, toy_ds.split("train"), cfg)
    first = np.mean(res.train_losses[:10])
    last = np.mean(res.train_losses[-10:])
    assert last < first


def test_overfits_tiny_set():
    ds = data_mod.generate(5, 50)
    for e in ds.examples:
        e.split = "train"
    dims = ModelDims(d_q=16, d_v=16, d_joint=32, n_answers=20, n_blocks=2)
    cnn = CnnConfig(image_size=32, channels1=8, channels2=8, d_out=16)
    model = VqaModel(vocab_size=len(data_mod.QUESTION_WORDS), d_emb=8,
                     dims=dims, cnn_config=cnn)
    cfg = TrainConfig(iterations=700, batch_size=16, learning_rate=3e-3,
                      dropout_rate=0.0, seed=4, eval_every=1000)
    train(model, ds.examples, cfg)
    images = np.stack([e.image for e in ds.examples])
    batch = QuestionBatch.pad([e.question for e in ds.examples])
    targets = np.array([e.answer_id for e in ds.examples])
    preds = model.predict_logits(images, batch).argmax(axis=1)
    assert np.mean(preds == targets) == 1.0


def test_freeze_cnn_keeps_weights(toy_ds):
    model = small_model()
    cfg = TrainConfig(iterations=6, batch_size=4, seed=13, freeze_cnn=True,
                      eval_every=100)
    init_params(model.named_parameters(), training.INIT_RANGE, cfg.seed)
    before = {k: t.data.copy() for k, t in model.cnn.params.items()}
    train(model, toy_ds.split("train"), cfg, initialize=False)
    for name, t in model.cnn.params.items():
        assert np.array_equal(before[name], t.data)
    # sanity: non-frozen parameters did move
    assert not np.array_equal(model.mrn.params["cls_w"].data,
                              np.zeros_like(model.mrn.params["cls_w"].data))


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train(small_model(), [], TrainConfig())


def test_batch_larger_than_train_split_rejected(toy_ds):
    train_set = toy_ds.split("train")
    cfg = TrainConfig(iterations=2, batch_size=len(train_set) + 1)
    with pytest.raises(ValueError, match=f"batch size {len(train_set) + 1} "
                       f"exceeds the {len(train_set)} training examples"):
        train(small_model(), train_set, cfg)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_nonfinite_loss_names_iteration(toy_ds):
    model = small_model()
    init_params(model.named_parameters(), 0.08, 0)
    model.mrn.params["cls_w"].data[:] = np.inf
    cfg = TrainConfig(iterations=3, batch_size=4, seed=1, eval_every=100)
    with pytest.raises(NumericalError, match="iteration 1"):
        train(model, toy_ds.split("train"), cfg, initialize=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_injected_non_finite_parameter_names_iteration(toy_ds, monkeypatch,
                                                       bad):
    real = training.rmsprop_step
    calls = []

    def inject(named_params, state, lr):
        real(named_params, state, lr)
        calls.append(1)
        if len(calls) == 3:
            named_params["mrn.cls_b"].data[1] = bad

    monkeypatch.setattr(training, "rmsprop_step", inject)
    cfg = TrainConfig(iterations=5, batch_size=4, seed=1, eval_every=100)
    with pytest.raises(NumericalError,
                       match="non-finite parameter at iteration 3"):
        train(small_model(), toy_ds.split("train"), cfg)


def test_finite_parameters_whose_sum_overflows_pass(toy_ds, monkeypatch):
    real = training.rmsprop_step

    def inflate(named_params, state, lr):
        real(named_params, state, lr)
        for name in ("mrn.cls_b", "gru.b_z"):
            named_params[name].data[:] = 1e308

    monkeypatch.setattr(training, "rmsprop_step", inflate)
    cfg = TrainConfig(iterations=1, batch_size=4, seed=1, eval_every=100)
    result = train(small_model(), toy_ds.split("train"), cfg)
    assert len(result.train_losses) == 1


def test_previous_graph_is_freed_before_the_next_forward(toy_ds,
                                                         monkeypatch):
    # the logits' array lives exactly as long as the logits node; the
    # loss node's backward keeps that node alive while the loss lives
    real = VqaModel.forward
    refs = []

    def spy(self, *args, **kwargs):
        assert all(r() is None for r in refs)
        out = real(self, *args, **kwargs)
        refs.append(weakref.ref(out[1].data))
        return out

    monkeypatch.setattr(VqaModel, "forward", spy)
    cfg = TrainConfig(iterations=4, batch_size=4, seed=2, eval_every=100)
    train(small_model(), toy_ds.split("train"), cfg)
    assert len(refs) == 4


@pytest.mark.parametrize("iterations", [3, 12])
def test_frozen_cnn_features_computed_once_per_run(toy_ds, monkeypatch,
                                                   iterations):
    real = encoders.cnn_forward
    calls = []

    def spy(image, cnn, freeze=False):
        calls.append(([im.tobytes() for im in image], freeze))
        return real(image, cnn, freeze)

    monkeypatch.setattr(encoders, "cnn_forward", spy)
    train_set = toy_ds.split("train")
    cfg = TrainConfig(iterations=iterations, batch_size=4, seed=3,
                      freeze_cnn=True, eval_every=100)
    train(small_model(), train_set, cfg)
    # one CNN row per example, repeated images included, 8 per call
    assert len(calls) == math.ceil(len(train_set) / 8)
    assert sum((images for images, _ in calls), []) == \
        [e.image.tobytes() for e in train_set]
    assert all(freeze for _, freeze in calls)


def test_frozen_cnn_loss_trace_matches_per_step_features(toy_ds,
                                                         monkeypatch):
    class PerStep:
        """Rows of v computed by one CNN call on each step's batch."""

        def __init__(self, model, images):
            self.model, self.images = model, images

        def __getitem__(self, idx):
            images = np.stack([self.images[i] for i in idx])
            return encoders.cnn_forward(images, self.model.cnn,
                                        freeze=True).data

    train_set = toy_ds.split("train")
    cfg = TrainConfig(iterations=30, batch_size=8, seed=4, freeze_cnn=True,
                      eval_every=100)
    once = train(small_model(), train_set, cfg).train_losses
    monkeypatch.setattr(VqaModel, "fixed_features",
                        lambda self, images: PerStep(self, images))
    per_step = train(small_model(), train_set, cfg).train_losses
    assert len(once) == len(per_step) == 30
    np.testing.assert_allclose(once, per_step, rtol=1e-12, atol=0)
