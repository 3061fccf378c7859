"""Training loop: uniform init, RMSProp, dropout, mini-batches.

Everything is deterministic given the config seed: initialization, batch
order and dropout masks each draw from their own seeded generator streams.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import evaluation
from .autodiff import Tensor
from .encoders import QuestionBatch
from .model import ModelDims, MrnModel, param_count, solve_dim_for_budget
from .vqa import VqaModel


class NumericalError(RuntimeError):
    """Non-finite value encountered during optimization."""


@dataclass
class TrainConfig:
    batch_size: int = 32
    iterations: int = 5000
    learning_rate: float = 3e-4
    rmsprop_decay: float = 0.99
    rmsprop_eps: float = 1e-8
    dropout_rate: float = 0.2
    dropout_mode: str = "standard"   # "standard" | "bayesian"
    init_range: float = 0.08
    seed: int = 0
    freeze_cnn: bool = False
    trimzero: bool = True
    grad_clip: float = 0.0           # 0 disables clipping
    eval_every: int = 100

    def validate(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout rate {self.dropout_rate} not in [0, 1)")
        if self.init_range <= 0:
            raise ValueError("init range must be positive")
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


def rmsprop_step(named_params, state, lr, decay=0.99, eps=1e-8):
    """s <- decay*s + (1-decay)*g^2;  p <- p - lr*g/(sqrt(s)+eps)."""
    for name, t in named_params.items():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        s = state.get(name)
        if s is None:
            s = np.zeros_like(t.data)
        s = decay * s + (1.0 - decay) * g * g
        state[name] = s
        t.data = t.data - lr * g / (np.sqrt(s) + eps)


def make_dropout_mask(shape, rate, rng):
    """Inverted-dropout mask: 0 with prob rate, else 1/(1-rate)."""
    keep = (rng.random(shape) >= rate).astype(np.float64)
    return keep / (1.0 - rate)


def dropout(x, rate, rng=None, phase="train", mask=None):
    """Standard inverted dropout; pass a precomputed mask for the
    per-sequence (bayesian) variant so it can be reused across steps."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate {rate} not in [0, 1)")
    if phase != "train" or rate == 0.0:
        return x
    if mask is None:
        mask = make_dropout_mask(x.shape, rate, rng)
    return ad.mul(x, Tensor(mask))


@dataclass
class TrainResult:
    model: object
    metrics: list = field(default_factory=list)   # rows of metric dicts
    train_losses: list = field(default_factory=list)


def _batch_arrays(dataset, idx):
    examples = [dataset[i] for i in idx]
    images = np.stack([e.image for e in examples])
    targets = np.array([e.answer_id for e in examples], dtype=np.int64)
    return images, QuestionBatch.pad([e.question for e in examples]), targets


def train(model, train_set, config, val_set=None, evaluate_fn=None,
          initialize=True):
    """Run the fixed iteration budget of mini-batch RMSProp.

    evaluate_fn(model, val_set) -> EvalReport is called every eval_every
    iterations when a validation set is given; its per-type accuracies go
    into the metrics rows. initialize=False keeps the caller's parameter
    values instead of drawing fresh ones.
    """
    config.validate()
    if not train_set:
        raise ValueError("empty training set")
    if config.batch_size > len(train_set):
        raise ValueError(f"batch size {config.batch_size} exceeds the "
                         f"{len(train_set)} training examples")
    params = model.named_parameters(include_cnn=not config.freeze_cnn)
    if initialize:
        init_params(model.named_parameters(), config.init_range, config.seed)
    state = {}
    rng_data = np.random.default_rng((config.seed, 1))
    rng_drop = np.random.default_rng((config.seed, 2))
    result = TrainResult(model=model)
    order = []
    for it in range(1, config.iterations + 1):
        if len(order) < config.batch_size:
            order = list(rng_data.permutation(len(train_set)))
        idx = [order.pop() for _ in range(config.batch_size)]
        images, qbatch, targets = _batch_arrays(train_set, idx)
        rate = config.dropout_rate
        if rate > 0.0:
            if config.dropout_mode == "bayesian":
                # one mask per sequence, reused across all its time steps
                seq_masks = make_dropout_mask(
                    (len(idx), model.d_emb), rate, rng_drop)

                def input_dropout(x, t, rows):
                    return dropout(x, rate, phase="train", mask=seq_masks[rows])
            else:
                def input_dropout(x, t, rows):
                    return dropout(x, rate, rng_drop)

            def joint_dropout(h):
                return dropout(h, rate, rng_drop)
        else:
            input_dropout = joint_dropout = None

        for t in params.values():
            t.zero_grad()
        _, logits = model.forward(
            images, qbatch, trimzero=config.trimzero,
            freeze_cnn=config.freeze_cnn, input_dropout=input_dropout,
            joint_dropout=joint_dropout)
        loss = ad.softmax_cross_entropy(logits, targets)
        if not np.isfinite(loss.item()):
            raise NumericalError(f"non-finite loss at iteration {it}")
        loss.backward()
        if config.grad_clip > 0.0:
            for t in params.values():
                if t.grad is not None:
                    np.clip(t.grad, -config.grad_clip, config.grad_clip,
                            out=t.grad)
        rmsprop_step(params, state, config.learning_rate,
                     config.rmsprop_decay, config.rmsprop_eps)
        for t in params.values():
            if not np.all(np.isfinite(t.data)):
                raise NumericalError(f"non-finite parameter at iteration {it}")
        result.train_losses.append(loss.item())
        if it % config.eval_every == 0 or it == config.iterations:
            row = {"iteration": it, "train_loss": loss.item()}
            if val_set is not None and evaluate_fn is not None:
                report = evaluate_fn(model, val_set)
                row.update({
                    "val_overall": report.overall,
                    "val_yn": report.per_type.get("Y/N", 0.0),
                    "val_num": report.per_type.get("Number", 0.0),
                    "val_other": report.per_type.get("Other", 0.0),
                })
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
                model, ds.split("val"), "oe", vocab=ds.answer_vocab))
        model, report = trained[key]
        yield {"sweep": sweep, "variant": variant, "blocks": n_blocks,
               "dim": d_joint, "params": param_count(model.mrn),
               "report": report, "model": model}


def write_metrics_csv(metrics, path):
    cols = ["iteration", "train_loss", "val_overall", "val_yn", "val_num",
            "val_other"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in metrics:
            f.write(",".join(_fmt(row.get(c)) for c in cols) + "\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)
