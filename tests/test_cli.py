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

            def corrupted():
                orig()
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
