"""Command-line entry point.

Subcommands: gen, train, eval, ablate, viz, gradcheck. A key=value config
file sets defaults for the chosen subcommand's flags (flags win). Exit
codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import evaluation, training, visualization
from .gradcheck import check_full_model, check_tensor_grad
from .model import ConfigError, ModelDims, VARIANTS
from .training import NumericalError, TrainConfig
from .vqa import VqaModel, load_checkpoint, save_checkpoint

CONFIG_VERSION = "1"
# report.csv's and ablation.csv's names for evaluation.accuracy_row
ACCURACY_COLUMNS = ("all", "yn", "num", "other")


class ValidationError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other validation errors, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def load_config_file(path):
    values = {}
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                offset = f.tell() - len(raw) + exc.start
                raise ValidationError(f"{path}:{lineno}: not UTF-8 text at "
                                      f"byte {offset}") from None
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            k, v = (s.strip() for s in line.split("=", 1))
            k = k.replace("-", "_")
            if k != "config_version":
                values[k] = v
            elif v != CONFIG_VERSION:
                raise ValidationError(f"{path}:{lineno}: unsupported "
                                      f"config_version {v}")
    return values


def non_negative_int(text):
    """int(text), which must be >= 0 (numpy's generators take no negative
    seed)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _accuracy(value):
    """An accuracy for the console; absent where there are no examples,
    as its CSV cell is empty."""
    return "absent" if value is None else f"{value:.4f}"


def build_parser():
    p = _Parser(prog="mrn", description=__doc__)
    p.add_argument("--config", help="key=value defaults for the "
                   "subcommand's flags; flags override it")
    sub = p.add_subparsers(dest="command", required=True)
    p.subcommands = sub.choices   # name -> its parser, for --config

    def seed_flag(sp):
        sp.add_argument("--seed", type=non_negative_int, default=7)

    def out_flag(sp):
        sp.add_argument("--out", default="out", help="output directory")

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    seed_flag(g)
    out_flag(g)
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

    recipe = TrainConfig()   # the pinned recipe gives the flags' defaults

    def recipe_flags(sp):
        sp.add_argument("--iters", type=int, default=recipe.iterations)
        sp.add_argument("--batch", type=int, default=recipe.batch_size)
        sp.add_argument("--lr", type=float, default=recipe.learning_rate)
        sp.add_argument("--dropout", type=float, default=recipe.dropout_rate)

    t = sub.add_parser("train", help="train a model")
    seed_flag(t)
    out_flag(t)
    t.add_argument("--data", required=True)
    model_flags(t)
    recipe_flags(t)
    t.add_argument("--dropout-mode", choices=["standard", "bayesian"],
                   default=recipe.dropout_mode)
    t.add_argument("--freeze-cnn", action="store_true")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    out_flag(e)
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--protocol", choices=["oe", "mc", "both"], default="both")
    e.add_argument("--postprocess", action="store_true",
                   help="caption-based logit bump")
    e.add_argument("--split", default="test")

    a = sub.add_parser("ablate", help="variant / depth / shortcut sweep")
    seed_flag(a)
    out_flag(a)
    a.add_argument("--data", required=True)
    recipe_flags(a)
    a.add_argument("--dim", type=int, default=64)
    a.add_argument("--budget-dim", type=int, default=64, help="d_joint of the "
                   "reference model fixing the MN-vs-MRN parameter budget")

    v = sub.add_parser("viz", help="write attention heatmaps for one example")
    out_flag(v)
    v.add_argument("--data", required=True)
    v.add_argument("--checkpoint", required=True)
    v.add_argument("--index", type=int, default=0)
    v.add_argument("--split", default="val")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    seed_flag(gc)
    return p


# ---------------------------------------------------------------------------
# commands

def _write_csv(path, columns, rows):
    """A header line, then one line per row dict: a float with six
    decimals, a missing value empty, anything else as str."""
    def cell(v):
        if v is None:
            return ""
        return f"{v:.6f}" if isinstance(v, float) else str(v)

    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(cell(row.get(c)) for c in columns) + "\n")


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


def _too_large(exc, flags):
    """The error for a model the size flags make too large to allocate."""
    return ValidationError(f"cannot allocate the model ({exc}); lower {flags}")


def _make_model(args, ds):
    dims = ModelDims(d_q=args.d_q, d_v=args.d_v, d_joint=args.dim,
                     n_answers=len(ds.answer_vocab), n_blocks=args.blocks)
    try:
        return VqaModel(vocab_size=len(ds.question_vocab), d_emb=args.d_emb,
                        variant=args.variant, dims=dims)
    except MemoryError as exc:
        raise _too_large(exc, "--blocks, --dim, --d-q, --d-v or --d-emb")


def _train_config(args):
    return TrainConfig(
        batch_size=args.batch, iterations=args.iters, learning_rate=args.lr,
        dropout_rate=args.dropout, dropout_mode=args.dropout_mode,
        seed=args.seed, freeze_cnn=args.freeze_cnn)


def cmd_train(args):
    os.makedirs(args.out, exist_ok=True)
    ds = data_mod.load(args.data)
    model = _make_model(args, ds)
    config = _train_config(args)
    eval_fn = lambda m, s: evaluation.evaluate(m, s, "oe", False,
                                               ds.answer_vocab)
    result = training.train(model, ds.split("train"), config,
                            val_set=ds.split("val"), evaluate_fn=eval_fn)
    ckpt = os.path.join(args.out, "model.ckpt")
    save_checkpoint(model, ckpt)
    metrics = os.path.join(args.out, "metrics.csv")
    _write_csv(metrics, ["iteration", "train_loss", "val_overall", "val_yn",
                         "val_num", "val_other"], result.metrics)
    final = result.metrics[-1]
    print(f"trained {args.variant}/L={args.blocks}: "
          f"final train_loss={final['train_loss']:.4f} "
          f"val_overall={_accuracy(final['val_overall'])}")
    print(f"checkpoint: {ckpt}\nmetrics: {metrics}")
    return 0


def _load_model(args, ds):
    """The checkpoint's model, checked against the dataset it will read."""
    model = load_checkpoint(args.checkpoint)
    checks = [("vocab_size", model.vocab_size, len(ds.question_vocab)),
              ("n_answers", model.dims.n_answers, len(ds.answer_vocab))]
    if ds.examples:
        c = model.cnn.config
        checks.append(("image shape",
                       (c.in_channels, c.image_size, c.image_size),
                       ds.examples[0].image.shape))
    for what, have, want in checks:
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
    _write_csv(path, ["protocol", *ACCURACY_COLUMNS], [
        {"protocol": r.protocol,
         **dict(zip(ACCURACY_COLUMNS, evaluation.accuracy_row(r)))}
        for r in reports])
    for r in reports:
        print(f"{r.protocol}: " + " ".join(
            f"{name}={_accuracy(acc)}" for name, acc in
            zip(("all",) + evaluation.ANSWER_TYPES,
                evaluation.accuracy_row(r))))
    print(f"report: {path}")
    return 0


def cmd_ablate(args):
    os.makedirs(args.out, exist_ok=True)
    ds = data_mod.load(args.data)
    config = TrainConfig(batch_size=args.batch, iterations=args.iters,
                         learning_rate=args.lr, dropout_rate=args.dropout,
                         seed=args.seed, eval_every=args.iters)
    rows = []
    sweep = training.ablation_sweep(ds, config, args.dim, args.budget_dim)
    try:
        for r in sweep:
            row = {"variant": r["variant"], "blocks": r["blocks"],
                   "dim": r["dim"], "params": r["params"],
                   **dict(zip(ACCURACY_COLUMNS,
                              evaluation.accuracy_row(r["report"])))}
            rows.append(row)
            print(f"{row['variant']:>2} L={row['blocks']} dim={row['dim']:>4}"
                  f" params={row['params']:>8} all={_accuracy(row['all'])}")
    except MemoryError as exc:
        # the sweep builds its models, and trains them, at these sizes
        raise _too_large(exc, "--dim or --budget-dim")

    path = os.path.join(args.out, "ablation.csv")
    _write_csv(path, list(rows[0]), rows)
    best = max((r for r in rows if r["all"] is not None),
               key=lambda r: r["all"], default=None)
    print("best: none, no row has an accuracy" if best is None else
          f"best: {best['variant']} L={best['blocks']} all={best['all']:.4f}")
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
    # the CNN stage's input gradient, which viz reads; the model check
    # below covers its weights and bias
    img = rng.standard_normal((2, 2, 4, 4))
    w = ad.Tensor(rng.standard_normal((3, 2, 3, 3)))
    b = ad.Tensor(rng.standard_normal(3))
    report("conv_tanh_pool.x", check_tensor_grad(
        lambda t: ad.tsum(ad.conv_tanh_pool(t, w, b)), img))
    # its weight gradient on a non-square input, whose padded rows are
    # longer than its padded columns
    wide = ad.Tensor(rng.standard_normal((2, 2, 4, 6)))
    report("conv_tanh_pool.w", check_tensor_grad(
        lambda t: ad.tsum(ad.conv_tanh_pool(wide, t, b)), w.data))
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
    try:
        args = _parse_with_config(parser, argv)
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


def _parse_with_config(parser, argv):
    """argv parsed with the --config file's values, if one is named, as
    defaults of the chosen subcommand's parser, so that flags still win.

    A value counts as given, so a required flag may come from the file.
    Each value is converted with its option's type and checked against its
    choices; an on/off flag takes true or false. A key that is not an
    option of the subcommand, or a value its option rejects, raises
    ValidationError naming the file and the key.
    """
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    sp = parser.subcommands.get(rest[0]) if known.config and rest else None
    if sp is None:
        return parser.parse_args(argv)
    path, command = known.config, rest[0]
    options = {a.dest: a for a in sp._actions if a.dest != "help"}
    defaults = {}
    for key, value in load_config_file(path).items():
        action = options.get(key)
        if action is None:
            raise ValidationError(f"{path}: {key!r} is not an option "
                                  f"of mrn {command}")
        if isinstance(action.default, bool):
            if value.lower() not in ("true", "false"):
                raise ValidationError(f"{path}: {key!r} must be true "
                                      f"or false, got {value!r}")
            value = value.lower() == "true"
        elif action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise ValidationError(
                    f"{path}: {key!r} must be of type "
                    f"{action.type.__name__}, got {value!r}") from None
            except argparse.ArgumentTypeError as exc:
                raise ValidationError(f"{path}: {key!r} {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise ValidationError(f"{path}: {key!r} must be one of "
                                  f"{sorted(action.choices)}, got {value!r}")
        action.required = False
        defaults[key] = value
    sp.set_defaults(**defaults)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main())
