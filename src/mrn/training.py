"""Training loop: uniform init, RMSProp, dropout, mini-batches.

Everything is deterministic given the config seed: initialization, batch
order and dropout masks each draw from their own seeded generator streams.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
# cnn_forward is looked up through its module at call time, so a wrapper set
# on encoders.cnn_forward (a profiler, a test double) applies here too
from . import encoders, evaluation
from .autodiff import Tensor
from .encoders import QuestionBatch
from .model import ModelDims, MrnModel, param_count, solve_dim_for_budget
from .vqa import VqaModel


# every parameter starts i.i.d. uniform(-INIT_RANGE, INIT_RANGE)
INIT_RANGE = 0.08
# RMSProp's moving-average decay of g^2 and the denominator's epsilon
RMSPROP_DECAY = 0.99
RMSPROP_EPS = 1e-8


class NumericalError(RuntimeError):
    """Non-finite value encountered during optimization."""


@dataclass
class TrainConfig:
    """A training run; the defaults are the pinned recipe."""
    batch_size: int = 32
    iterations: int = 1200
    learning_rate: float = 3e-3
    dropout_rate: float = 0.1
    dropout_mode: str = "standard"   # "standard" | "bayesian"
    seed: int = 0
    freeze_cnn: bool = False
    eval_every: int = 100

    def validate(self):
        # 0 is allowed: a run that keeps the initial parameters
        if not (math.isfinite(self.learning_rate)
                and self.learning_rate >= 0.0):
            raise ValueError(f"learning rate {self.learning_rate} must be "
                             "finite and >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout rate {self.dropout_rate} not in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.iterations < 1:
            raise ValueError(f"iterations {self.iterations} must be >= 1")
        if self.eval_every < 1:
            raise ValueError(f"eval_every {self.eval_every} must be >= 1")
        if self.dropout_mode not in ("standard", "bayesian"):
            raise ValueError(f"unknown dropout mode {self.dropout_mode!r}")


def init_params(named_params, init_range, seed):
    """Fill every parameter i.i.d. uniform(-r, r), deterministically."""
    if init_range <= 0:
        raise ValueError("init range must be positive")
    rng = np.random.default_rng(seed)
    for name in sorted(named_params):
        t = named_params[name]
        t.data = rng.uniform(-init_range, init_range, size=t.shape)


def rmsprop_step(named_params, state, lr):
    """s <- decay*s + (1-decay)*g^2;  p <- p - lr*g/(sqrt(s)+eps), with
    decay RMSPROP_DECAY and eps RMSPROP_EPS. s and p are updated in place,
    in the formula's operation order: the same values from three new
    arrays per parameter instead of nine."""
    for name, t in named_params.items():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        s = state.get(name)
        if s is None:
            s = state[name] = np.zeros_like(t.data)
        s *= RMSPROP_DECAY
        g2 = (1.0 - RMSPROP_DECAY) * g
        g2 *= g
        s += g2
        denom = np.sqrt(s)
        denom += RMSPROP_EPS
        step = lr * g
        step /= denom
        t.data -= step


def make_dropout_mask(shape, rate, rng):
    """Inverted-dropout mask: 0 with prob rate, else 1/(1-rate)."""
    keep = (rng.random(shape) >= rate).astype(np.float64)
    return keep / (1.0 - rate)


def dropout(x, rate, rng=None, mask=None):
    """Standard inverted dropout; pass a precomputed mask for the
    per-sequence (bayesian) variant so it can be reused across steps."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate {rate} not in [0, 1)")
    if rate == 0.0:
        return x
    if mask is None:
        mask = make_dropout_mask(x.shape, rate, rng)
    return ad.mul(x, Tensor(mask))


@dataclass
class TrainResult:
    metrics: list = field(default_factory=list)   # rows of metric dicts
    train_losses: list = field(default_factory=list)


def _loss_and_backward(model, examples, v, input_dropout, joint_dropout,
                       it):
    """Loss of one mini-batch as a float, after its backward.

    v holds the batch's features, or is None to run the CNN on the tape.
    The graph is freed on return, before the next one is built.
    """
    if v is None:
        v = encoders.cnn_forward(np.stack([e.image for e in examples]),
                                 model.cnn)
    else:
        v = Tensor(v)
    _, logits = model.forward(
        v, QuestionBatch.pad([e.question for e in examples]),
        input_dropout=input_dropout, joint_dropout=joint_dropout)
    targets = np.array([e.answer_id for e in examples], dtype=np.int64)
    loss = ad.softmax_cross_entropy(logits, targets)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalError(f"non-finite loss at iteration {it}")
    loss.backward()
    return value


def train(model, train_set, config, val_set=None, evaluate_fn=None,
          initialize=True):
    """Run the fixed iteration budget of mini-batch RMSProp.

    evaluate_fn(model, val_set) -> EvalReport is called every eval_every
    iterations when a validation set is given; its accuracies go into the
    metrics rows, None for an answer type with no examples.
    initialize=False keeps the caller's parameter values instead of
    drawing fresh ones. With freeze_cnn the train split's
    features are computed once, before the first step; no dropout touches
    them, so each step reads the v a CNN run on its batch gives, up to
    rounding: the fc map rounds a row by the rows it shares a product
    with, and under OpenBLAS's SkylakeX kernel the two are bit-equal only
    for batches of 2-15 rows (at batch 32 they differ by up to 5.3e-16).
    """
    config.validate()
    if not train_set:
        raise ValueError("empty training set")
    if config.batch_size > len(train_set):
        raise ValueError(f"batch size {config.batch_size} exceeds the "
                         f"{len(train_set)} training examples")
    params = model.named_parameters(include_cnn=not config.freeze_cnn)
    if initialize:
        init_params(model.named_parameters(), INIT_RANGE, config.seed)
    v_all = (model.fixed_features([e.image for e in train_set])
             if config.freeze_cnn else None)
    state = {}
    rng_data = np.random.default_rng((config.seed, 1))
    rng_drop = np.random.default_rng((config.seed, 2))
    result = TrainResult()
    order = []
    for it in range(1, config.iterations + 1):
        if len(order) < config.batch_size:
            order = list(rng_data.permutation(len(train_set)))
        idx = [order.pop() for _ in range(config.batch_size)]
        rate = config.dropout_rate
        if rate > 0.0:
            if config.dropout_mode == "bayesian":
                # one mask per sequence, reused across all its time steps
                seq_masks = make_dropout_mask(
                    (len(idx), model.d_emb), rate, rng_drop)

                def input_dropout(x, rows):
                    return dropout(x, rate, mask=seq_masks[rows])
            else:
                def input_dropout(x, rows):
                    return dropout(x, rate, rng_drop)

            def joint_dropout(h):
                return dropout(h, rate, rng_drop)
        else:
            input_dropout = joint_dropout = None

        for t in params.values():
            t.zero_grad()
        loss = _loss_and_backward(
            model, [train_set[i] for i in idx],
            None if v_all is None else v_all[idx],
            input_dropout, joint_dropout, it)
        rmsprop_step(params, state, config.learning_rate)
        for t in params.values():
            if not np.isfinite(t.data).all():
                raise NumericalError(f"non-finite parameter at iteration {it}")
        result.train_losses.append(loss)
        if it % config.eval_every == 0 or it == config.iterations:
            row = {"iteration": it, "train_loss": loss}
            if val_set is not None and evaluate_fn is not None:
                row.update(zip(
                    ("val_overall", "val_yn", "val_num", "val_other"),
                    evaluation.accuracy_row(evaluate_fn(model, val_set))))
            result.metrics.append(row)
    return result


def ablation_sweep(ds, config, dim, budget_dim):
    """Train and score the variant / depth / shortcut sweep on ds.

    Yields one row per config, in order: the five variants a-e at L=3 and
    d_joint=dim ("variant"), variant b at L=1, 2, 4 ("depth"), then b and
    mn at L=3 with d_joint solved so their fusion stacks fit the parameter
    count of b/L=3 at d_joint=budget_dim ("budget"). A row is a dict of
    sweep, variant, blocks, dim, params, report (val-split OE EvalReport)
    and the trained model. Training is deterministic, so a config that
    repeats an earlier one reuses its model instead of training again.
    """
    n_answers = len(ds.answer_vocab)
    ref = ModelDims(d_joint=budget_dim, n_answers=n_answers, n_blocks=3)
    budget = param_count(MrnModel("b", ref))
    plan = [("variant", v, 3, dim) for v in "abcde"]
    plan += [("depth", "b", n, dim) for n in (1, 2, 4)]
    plan += [("budget", v, 3, solve_dim_for_budget(v, 3, ref.d_q, ref.d_v,
                                                   n_answers, budget))
             for v in ("b", "mn")]
    trained = {}
    for sweep, variant, n_blocks, d_joint in plan:
        key = (variant, n_blocks, d_joint)
        if key not in trained:
            dims = ModelDims(d_joint=d_joint, n_answers=n_answers,
                             n_blocks=n_blocks)
            model = VqaModel(vocab_size=len(ds.question_vocab),
                             variant=variant, dims=dims)
            train(model, ds.split("train"), config)
            trained[key] = (model, evaluation.evaluate(
                model, ds.split("val"), "oe", False, ds.answer_vocab))
        model, report = trained[key]
        yield {"sweep": sweep, "variant": variant, "blocks": n_blocks,
               "dim": d_joint, "params": param_count(model.mrn),
               "report": report, "model": model}
