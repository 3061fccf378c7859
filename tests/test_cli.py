import hashlib
import json
import os

import numpy as np
import pytest

from mrn.cli import build_parser, load_config_file, main


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["gen", "--seed", "3", "--n", "60", "--out", str(d),
               "--data", str(d / "ds.mrnd")])
    assert rc == 0
    return d


def train_args(workdir, out, extra=()):
    return ["train", "--data", str(workdir / "ds.mrnd"), "--out", out,
            "--seed", "5", "--iters", "10", "--batch", "4", "--dim", "16",
            "--d-q", "8", "--d-v", "16", "--d-emb", "4", "--blocks", "2",
            *extra]


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    for flag in ("--variant", "--blocks", "--dim", "--seed", "--iters",
                 "--batch", "--dropout", "--dropout-mode", "--freeze-cnn",
                 "--out"):
        assert flag in out


def test_gen_writes_dataset_and_jsonl(workdir):
    assert (workdir / "ds.mrnd").exists()
    assert (workdir / "ds.mrnd.jsonl").exists()


def test_train_eval_viz_pipeline(workdir, tmp_path):
    out = str(tmp_path / "run")
    assert main(train_args(workdir, out)) == 0
    ckpt = os.path.join(out, "model.ckpt")
    metrics = os.path.join(out, "metrics.csv")
    assert os.path.exists(ckpt) and os.path.exists(metrics)
    header = open(metrics).readline().strip()
    assert header == "iteration,train_loss,val_overall,val_yn,val_num,val_other"

    eout = str(tmp_path / "eval")
    rc = main(["eval", "--data", str(workdir / "ds.mrnd"), "--checkpoint",
               ckpt, "--out", eout, "--protocol", "both", "--split", "val"])
    assert rc == 0
    lines = open(os.path.join(eout, "report.csv")).read().splitlines()
    assert lines[0] == "protocol,all,yn,num,other"
    assert len(lines) == 3

    vout = str(tmp_path / "viz")
    rc = main(["viz", "--data", str(workdir / "ds.mrnd"), "--checkpoint",
               ckpt, "--out", vout, "--index", "0"])
    assert rc == 0
    manifest = json.load(open(os.path.join(vout, "manifest.json")))
    assert len(manifest["blocks"]) == 2


def test_train_deterministic_artifacts(workdir, tmp_path):
    sums = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert main(train_args(workdir, out)) == 0
        sums.append((sha(os.path.join(out, "model.ckpt")),
                     sha(os.path.join(out, "metrics.csv"))))
    assert sums[0] == sums[1]


def test_config_file_defaults_and_flag_override(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("config_version=1\niters=10\nbatch=4\ndim=16\n"
                   "d_q=8\nd_v=16\nd_emb=4\nblocks=2\nseed=5\n")
    out = str(tmp_path / "cfgrun")
    rc = main(["--config", str(cfg), "train", "--data",
               str(workdir / "ds.mrnd"), "--out", out, "--iters", "6"])
    assert rc == 0
    rows = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert rows[-1].startswith("6,")  # flag overrode config's iters=10


def test_config_file_rejects_bad_version(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("config_version=9\n")
    rc = main(["--config", str(cfg), "gen", "--n", "1",
               "--out", str(tmp_path)])
    assert rc == 1


def test_validation_error_exit_code(workdir, tmp_path):
    rc = main(["viz", "--data", str(workdir / "ds.mrnd"), "--checkpoint",
               "/nonexistent.ckpt", "--out", str(tmp_path), "--index", "0"])
    assert rc == 3  # i/o error
    out = str(tmp_path / "trained")
    assert main(train_args(workdir, out)) == 0
    rc = main(["viz", "--data", str(workdir / "ds.mrnd"), "--checkpoint",
               os.path.join(out, "model.ckpt"), "--out", str(tmp_path),
               "--index", "9999"])
    assert rc == 1


def test_train_batch_larger_than_split_exit_code(workdir, tmp_path, capsys):
    rc = main(train_args(workdir, str(tmp_path / "big"), ["--batch", "1000"]))
    assert rc == 1
    err = capsys.readouterr().err
    assert "batch size 1000 exceeds the" in err
    assert "Traceback" not in err


def test_train_zero_iterations_exit_code(workdir, tmp_path, capsys):
    out = tmp_path / "empty"
    rc = main(train_args(workdir, str(out), ["--iters", "0"]))
    assert rc == 1
    err = capsys.readouterr().err
    assert "iterations 0 must be >= 1" in err
    assert "Traceback" not in err
    assert not (out / "model.ckpt").exists()


def test_eval_bad_checkpoint_header_exit_code(workdir, tmp_path, capsys):
    path = tmp_path / "bad.ckpt"
    hb = b'{"vocab_size": 5}'
    path.write_bytes(b"MRNCKPT1" + len(hb).to_bytes(8, "little") + hb)
    rc = main(["eval", "--data", str(workdir / "ds.mrnd"), "--checkpoint",
               str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "checkpoint header at offset 16: missing field 'd_emb'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, mismatch, message", [
    ("eval", "vocab", "has vocab_size 6 but dataset"),
    ("viz", "vocab", "has vocab_size 6 but dataset"),
    ("eval", "answers", "has n_answers 3 but dataset"),
    ("viz", "answers", "has n_answers 3 but dataset"),
])
def test_checkpoint_dataset_mismatch_exit_code(workdir, tmp_path, capsys,
                                               command, mismatch, message):
    from mrn import data as data_mod
    from mrn.gradcheck import tiny_model
    from mrn.model import ModelDims
    from mrn.vqa import VqaModel, save_checkpoint
    ds = data_mod.load(str(workdir / "ds.mrnd"))
    if mismatch == "vocab":
        model = tiny_model()
        want = len(ds.question_vocab)
    else:
        model = VqaModel(vocab_size=len(ds.question_vocab), dims=ModelDims(
            d_q=4, d_v=5, d_joint=5, n_answers=3, n_blocks=1))
        want = len(ds.answer_vocab)
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(model, ckpt)
    rc = main([command, "--data", str(workdir / "ds.mrnd"), "--checkpoint",
               ckpt, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{message} {workdir / 'ds.mrnd'} has {want}" in err
    assert "Traceback" not in err


def test_gradcheck_command(capsys):
    rc = main(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all gradient checks passed" in out
    # every parameter tensor appears by name
    for name in ("model.gru.emb", "model.cnn.conv1_w", "model.mrn.block1.w_q",
                 "model.mrn.cls_w"):
        assert name in out


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    # negative control: break tanh's backward rule and expect failure
    from mrn import autodiff as ad

    real_tanh = ad.tanh

    def bad_tanh(a):
        out = real_tanh(a)
        if out._backward is not None:
            orig = out._backward

            def corrupted(g):
                orig(g)
                a.grad *= 1.5
            out._backward = corrupted
        return out

    monkeypatch.setattr(ad, "tanh", bad_tanh)
    rc = main(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in out


def test_ablate_row_per_config(workdir, tmp_path):
    out = str(tmp_path / "abl")
    rc = main(["ablate", "--data", str(workdir / "ds.mrnd"), "--out", out,
               "--seed", "5", "--iters", "4", "--batch", "4", "--dim", "8",
               "--budget-dim", "8"])
    assert rc == 0
    rows = open(os.path.join(out, "ablation.csv")).read().splitlines()
    # header + 5 variants + 3 depths + 2 budget-matched rows
    assert len(rows) == 11
    assert rows[0] == "variant,blocks,dim,params,all,yn,num,other"


def test_ablate_trains_repeated_config_once(workdir, tmp_path, monkeypatch):
    from mrn import training
    calls = []
    real_train = training.train

    def counting_train(model, *args, **kwargs):
        calls.append((model.variant, len(model.mrn.blocks),
                      model.dims.d_joint))
        return real_train(model, *args, **kwargs)

    monkeypatch.setattr(training, "train", counting_train)
    out = str(tmp_path / "abl")
    rc = main(["ablate", "--data", str(workdir / "ds.mrnd"), "--out", out,
               "--seed", "5", "--iters", "4", "--batch", "4", "--dim", "8",
               "--budget-dim", "8"])
    assert rc == 0
    assert len(calls) == 9 and len(set(calls)) == 9
    rows = open(os.path.join(out, "ablation.csv")).read().splitlines()
    # variant b at L=3 (row 2) and the budget-matched b (row 9)
    assert rows[2].startswith("b,3,8,") and rows[2] == rows[9]
