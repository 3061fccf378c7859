import numpy as np
import pytest

from mrn import data as data_mod
from mrn.autodiff import Tensor
from mrn.encoders import CnnConfig
from mrn.model import ModelDims
from mrn.training import NumericalError, TrainConfig, dropout, init_params, \
    rmsprop_step, train
from mrn.vqa import VqaModel


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
    rmsprop_step({"p": p}, state, lr=0.1, decay=0.5)
    assert p.data.tolist() == [1.0, -2.0]
    assert state["p"].tolist() == [2.0, 2.0]  # decayed


def test_rmsprop_scalar_hand_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    state = {}
    rmsprop_step({"p": p}, state, lr=0.1, decay=0.9, eps=1e-8)
    s = 0.1 * 4.0
    expect = 1.0 - 0.1 * 2.0 / (np.sqrt(s) + 1e-8)
    assert p.data[0] == pytest.approx(expect, rel=1e-15)


def test_rmsprop_constant_gradient_fixed_point():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = {}
    for _ in range(2000):
        p.grad = np.array([3.0])
        before = p.data.copy()
        rmsprop_step({"p": p}, state, lr=0.01, decay=0.9)
    # update magnitude approaches lr * g / |g| as s -> g^2
    assert abs(before[0] - p.data[0]) == pytest.approx(0.01, rel=1e-6)


# ---------------------------------------------------------------------------
# dropout

def test_dropout_rate_zero_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_eval_identity():
    x = Tensor(np.ones((2, 3)))
    out = dropout(x, 0.9, np.random.default_rng(0), phase="eval")
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
    init_params(fresh.named_parameters(), cfg.init_range, cfg.seed)
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
    from mrn.training import _batch_arrays
    images, batch, targets = _batch_arrays(ds.examples, list(range(50)))
    preds = model.predict_logits(images, batch).argmax(axis=1)
    assert np.mean(preds == targets) == 1.0


def test_freeze_cnn_keeps_weights(toy_ds):
    model = small_model()
    cfg = TrainConfig(iterations=6, batch_size=4, seed=13, freeze_cnn=True,
                      eval_every=100)
    init_params(model.named_parameters(), cfg.init_range, cfg.seed)
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
