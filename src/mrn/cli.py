"""Command-line entry point.

Subcommands: gen, train, eval, ablate, viz, gradcheck. A key=value config
file can seed any flag's default (flags win). Exit codes: 0 success,
1 validation error, 2 numerical failure, 3 I/O error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import data as data_mod
from . import evaluation, training, visualization
from .gradcheck import check_full_model, check_tensor_grad, tiny_model
from .model import ConfigError, ModelDims, VARIANTS
from .training import NumericalError, TrainConfig
from .vqa import VqaModel, load_checkpoint, save_checkpoint

CONFIG_VERSION = "1"


class ValidationError(ValueError):
    pass


def load_config_file(path):
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            k, v = (s.strip() for s in line.split("=", 1))
            values[k.replace("-", "_")] = v
    version = values.pop("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValidationError(f"unsupported config_version {version}")
    return values


def build_parser():
    p = argparse.ArgumentParser(prog="mrn", description=__doc__)
    p.add_argument("--config", help="key=value config file; flags override it")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--out", default="out", help="output directory")

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    common(g)
    g.add_argument("--n", type=int, default=900, help="number of examples")
    g.add_argument("--data", default=None, help="dataset path "
                   "(default: OUT/dataset.mrnd)")

    def model_flags(sp):
        sp.add_argument("--variant", choices=sorted(VARIANTS), default="b")
        sp.add_argument("--blocks", type=int, default=3, help="number of "
                        "learning blocks (L)")
        sp.add_argument("--dim", type=int, default=64, help="joint dimension")
        sp.add_argument("--d-q", type=int, default=32)
        sp.add_argument("--d-v", type=int, default=64)
        sp.add_argument("--d-emb", type=int, default=16)

    def train_flags(sp):
        sp.add_argument("--iters", type=int, default=1200)
        sp.add_argument("--batch", type=int, default=32)
        sp.add_argument("--lr", type=float, default=3e-3)
        sp.add_argument("--dropout", type=float, default=0.1)
        sp.add_argument("--dropout-mode", choices=["standard", "bayesian"],
                        default="standard")
        sp.add_argument("--freeze-cnn", action="store_true")
        sp.add_argument("--no-trimzero", action="store_true")

    t = sub.add_parser("train", help="train a model")
    common(t)
    t.add_argument("--data", required=True)
    model_flags(t)
    train_flags(t)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    common(e)
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--protocol", choices=["oe", "mc", "both"], default="both")
    e.add_argument("--postprocess", action="store_true",
                   help="caption-based logit bump")
    e.add_argument("--split", default="test")

    a = sub.add_parser("ablate", help="variant / depth / shortcut sweep")
    common(a)
    a.add_argument("--data", required=True)
    a.add_argument("--iters", type=int, default=1200)
    a.add_argument("--batch", type=int, default=32)
    a.add_argument("--lr", type=float, default=3e-3)
    a.add_argument("--dropout", type=float, default=0.1)
    a.add_argument("--dim", type=int, default=64)
    a.add_argument("--budget-dim", type=int, default=64, help="d_joint of the "
                   "reference model fixing the MN-vs-MRN parameter budget")

    v = sub.add_parser("viz", help="write attention heatmaps for one example")
    common(v)
    v.add_argument("--data", required=True)
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--index", type=int, default=0)
    v.add_argument("--split", default="val")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(gc)
    return p


# ---------------------------------------------------------------------------
# commands

def cmd_gen(args):
    os.makedirs(args.out, exist_ok=True)
    path = args.data or os.path.join(args.out, "dataset.mrnd")
    ds = data_mod.generate(args.seed, args.n)
    data_mod.save(ds, path)
    data_mod.export_jsonl(ds, path + ".jsonl")
    counts = {}
    for ex in ds.examples:
        counts[ex.answer_type] = counts.get(ex.answer_type, 0) + 1
    print(f"wrote {len(ds.examples)} examples to {path} "
          f"(types: {json.dumps(counts, sort_keys=True)})")
    return 0


def _make_model(args, ds):
    dims = ModelDims(d_q=args.d_q, d_v=args.d_v, d_joint=args.dim,
                     n_answers=len(ds.answer_vocab), n_blocks=args.blocks)
    return VqaModel(vocab_size=len(ds.question_vocab), d_emb=args.d_emb,
                    variant=args.variant, dims=dims)


def _train_config(args):
    return TrainConfig(
        batch_size=args.batch, iterations=args.iters, learning_rate=args.lr,
        dropout_rate=args.dropout,
        dropout_mode=getattr(args, "dropout_mode", "standard"),
        seed=args.seed, freeze_cnn=getattr(args, "freeze_cnn", False),
        trimzero=not getattr(args, "no_trimzero", False))


def cmd_train(args):
    os.makedirs(args.out, exist_ok=True)
    ds = data_mod.load(args.data)
    model = _make_model(args, ds)
    config = _train_config(args)
    eval_fn = lambda m, s: evaluation.evaluate(m, s, "oe",
                                               vocab=ds.answer_vocab)
    result = training.train(model, ds.split("train"), config,
                            val_set=ds.split("val"), evaluate_fn=eval_fn)
    ckpt = os.path.join(args.out, "model.ckpt")
    save_checkpoint(model, ckpt)
    metrics = os.path.join(args.out, "metrics.csv")
    training.write_metrics_csv(result.metrics, metrics)
    final = result.metrics[-1] if result.metrics else {}
    print(f"trained {args.variant}/L={args.blocks}: "
          f"final train_loss={final.get('train_loss', float('nan')):.4f} "
          f"val_overall={final.get('val_overall', float('nan')):.4f}")
    print(f"checkpoint: {ckpt}\nmetrics: {metrics}")
    return 0


def _load_model(args, ds):
    """The checkpoint's model, checked against the dataset it will read."""
    model = load_checkpoint(args.checkpoint)
    for what, have, want in (
            ("vocab_size", model.vocab_size, len(ds.question_vocab)),
            ("n_answers", model.dims.n_answers, len(ds.answer_vocab))):
        if have != want:
            raise ValidationError(
                f"checkpoint {args.checkpoint} has {what} {have} but dataset "
                f"{args.data} has {want}")
    return model


def cmd_eval(args):
    os.makedirs(args.out, exist_ok=True)
    ds = data_mod.load(args.data)
    model = _load_model(args, ds)
    examples = ds.split(args.split)
    if not examples:
        raise ValidationError(f"no examples in split {args.split!r}")
    protocols = ["oe", "mc"] if args.protocol == "both" else [args.protocol]
    reports = [evaluation.evaluate(model, examples, proto,
                                   postprocess=args.postprocess,
                                   vocab=ds.answer_vocab)
               for proto in protocols]
    path = os.path.join(args.out, "report.csv")
    evaluation.write_report_csv(reports, path)
    for r in reports:
        print(f"{r.protocol}: all={r.overall:.4f} " +
              " ".join(f"{t}={r.per_type.get(t, float('nan')):.4f}"
                       for t in evaluation.ANSWER_TYPES))
    print(f"report: {path}")
    return 0


def cmd_ablate(args):
    os.makedirs(args.out, exist_ok=True)
    ds = data_mod.load(args.data)
    config = TrainConfig(batch_size=args.batch, iterations=args.iters,
                         learning_rate=args.lr, dropout_rate=args.dropout,
                         seed=args.seed, eval_every=args.iters)
    rows = []
    for r in training.ablation_sweep(ds, config, args.dim, args.budget_dim):
        report = r["report"]
        row = {"variant": r["variant"], "blocks": r["blocks"], "dim": r["dim"],
               "params": r["params"], "all": report.overall,
               "yn": report.per_type.get("Y/N", 0.0),
               "num": report.per_type.get("Number", 0.0),
               "other": report.per_type.get("Other", 0.0)}
        rows.append(row)
        print(f"{row['variant']:>2} L={row['blocks']} dim={row['dim']:>4} "
              f"params={row['params']:>8} all={row['all']:.4f}")

    path = os.path.join(args.out, "ablation.csv")
    cols = ["variant", "blocks", "dim", "params", "all", "yn", "num", "other"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(f"{row[c]:.6f}" if isinstance(row[c], float)
                             else str(row[c]) for c in cols) + "\n")
    best = max(rows, key=lambda r: r["all"])
    print(f"best: {best['variant']} L={best['blocks']} all={best['all']:.4f}")
    print(f"ablation table: {path}")
    return 0


def cmd_viz(args):
    os.makedirs(args.out, exist_ok=True)
    ds = data_mod.load(args.data)
    model = _load_model(args, ds)
    examples = ds.split(args.split)
    if not (0 <= args.index < len(examples)):
        raise ValidationError(f"index {args.index} out of range for split "
                              f"{args.split!r} ({len(examples)} examples)")
    heatmaps, manifest = visualization.visualize_sequence(
        examples[args.index], model, args.out)
    print(f"wrote {len(heatmaps)} heatmaps; manifest: {manifest}")
    return 0


def cmd_gradcheck(args):
    import numpy as np

    from . import autodiff as ad
    failures = 0
    tol = 1e-4
    rng = np.random.default_rng(args.seed)

    def report(name, err, tolerance=tol):
        nonlocal failures
        ok = err < tolerance
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<40} max_rel_err={err:.3e}")

    a0 = rng.standard_normal((3, 3))
    b0 = rng.standard_normal((3, 3))
    report("matmul", check_tensor_grad(
        lambda t: ad.tsum(ad.matmul(t, ad.Tensor(b0))), a0))
    report("mul", check_tensor_grad(
        lambda t: ad.tsum(ad.mul(t, ad.Tensor(b0))), a0))
    report("tanh", check_tensor_grad(lambda t: ad.tsum(ad.tanh(t)), a0))
    report("sigmoid", check_tensor_grad(lambda t: ad.tsum(ad.sigmoid(t)), a0))
    targets = rng.integers(0, 3, size=3)
    report("softmax_cross_entropy", check_tensor_grad(
        lambda t: ad.softmax_cross_entropy(t, targets), a0))
    for name, err in check_full_model(seed=args.seed):
        report(f"model.{name}", err)
    if failures:
        print(f"{failures} gradient check(s) failed")
        return 2
    print("all gradient checks passed")
    return 0


COMMANDS = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
            "ablate": cmd_ablate, "viz": cmd_viz, "gradcheck": cmd_gradcheck}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become defaults, so explicit flags win on re-parse
            values = load_config_file(args.config)
            parser.set_defaults(**{k: _coerce(v) for k, v in values.items()})
            args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except (ValidationError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _coerce(v):
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            pass
    if v.lower() in ("true", "false"):
        return v.lower() == "true"
    return v


if __name__ == "__main__":
    sys.exit(main())
