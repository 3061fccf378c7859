import contextlib
import hashlib
import io
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrn import data as data_mod
from mrn.cli import build_parser, load_config_file, main
from mrn.container import FormatError
from mrn.encoders import CnnConfig
from mrn.model import ModelDims
from mrn.vqa import VqaModel, load_checkpoint, save_checkpoint


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
    assert "--no-trimzero" not in out


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


def test_eval_both_protocols_compute_each_image_once(workdir, tmp_path,
                                                     monkeypatch):
    from mrn import encoders
    out = str(tmp_path / "run")
    assert main(train_args(workdir, out)) == 0
    ckpt = os.path.join(out, "model.ckpt")
    real = encoders.cnn_forward
    rows = []

    def spy(image, cnn, freeze=False):
        rows.extend(im.tobytes() for im in image)
        return real(image, cnn, freeze)

    monkeypatch.setattr(encoders, "cnn_forward", spy)
    reports = {}
    for protocol in ("both", "oe", "mc"):
        eout = str(tmp_path / protocol)
        rows.clear()
        assert main(["eval", "--data", str(workdir / "ds.mrnd"),
                     "--checkpoint", ckpt, "--out", eout, "--protocol",
                     protocol, "--split", "val"]) == 0
        reports[protocol] = open(os.path.join(eout, "report.csv"),
                                 "rb").read()
        if protocol == "both":
            both_rows = list(rows)
    val = data_mod.load(str(workdir / "ds.mrnd")).split("val")
    # one CNN row per example across both reports: the second protocol
    # repeats the first one's calls
    assert both_rows == [e.image.tobytes() for e in val]
    header = reports["oe"].splitlines(keepends=True)[0]
    assert reports["mc"].startswith(header)
    assert reports["both"] == reports["oe"] + reports["mc"][len(header):]


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
    for name, flags, last in (("cfgrun", [], "10,"),
                              ("flagrun", ["--iters", "6"], "6,")):
        out = str(tmp_path / name)
        rc = main(["--config", str(cfg), "train", "--data",
                   str(workdir / "ds.mrnd"), "--out", out, *flags])
        assert rc == 0
        rows = open(os.path.join(out, "metrics.csv")).read().splitlines()
        assert rows[-1].startswith(last)  # the file's iters=10 unless a flag
        model = load_checkpoint(os.path.join(out, "model.ckpt"))
        assert (model.dims.d_q, model.d_emb, len(model.mrn.blocks)) == (8, 4, 2)


@pytest.mark.parametrize("line, message", [
    ("protocol=oe", "'protocol' is not an option of mrn train"),
    ("freeze_cnn=maybe", "'freeze_cnn' must be true or false, got 'maybe'"),
    ("batch=abc", "'batch' must be of type int, got 'abc'"),
    ("variant=zz", "'variant' must be one of ['a', 'b', 'c', 'd', 'e', "
                   "'mn'], got 'zz'"),
], ids=["unknown-key", "bad-switch", "bad-int", "bad-choice"])
def test_config_file_bad_key_exit_code(workdir, tmp_path, capsys, line,
                                       message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"iters=10\n{line}\n")
    out = tmp_path / "unknown"
    rc = main(["--config", str(cfg), "train", "--data",
               str(workdir / "ds.mrnd"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{cfg}: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_file_supplies_required_data(workdir, tmp_path):
    cfg = tmp_path / "data.cfg"
    cfg.write_text(f"data={workdir / 'ds.mrnd'}\n")
    out = str(tmp_path / "run")
    # train and eval both require --data; the file's value counts as given
    args = train_args(workdir, out)
    del args[1:3]   # "--data", its path
    assert main(["--config", str(cfg), *args]) == 0
    eout = tmp_path / "eval"
    rc = main(["--config", str(cfg), "eval", "--checkpoint",
               os.path.join(out, "model.ckpt"), "--out", str(eout),
               "--split", "val"])
    assert rc == 0
    assert (eout / "report.csv").exists()


def test_config_file_rejects_bad_version(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n=1\nconfig_version=9\n")
    rc = main(["--config", str(cfg), "gen", "--out", str(tmp_path)])
    assert rc == 1
    assert f"{cfg}:2: unsupported config_version 9" in capsys.readouterr().err


def test_config_file_not_utf8_names_file_line_and_byte(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n=1\nout=ab\xffc\n")
    rc = main(["--config", str(cfg), "gen", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2: not UTF-8 text at byte 10" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("eval", "--seed"), ("viz", "--seed"), ("gradcheck", "--out")])
def test_flag_the_command_does_not_read_is_rejected(command, flag):
    args = {"eval": ["--data", "d", "--checkpoint", "c"],
            "viz": ["--data", "d", "--checkpoint", "c"],
            "gradcheck": []}[command]
    assert main([command, *args, flag, "1"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", "d", "--bogus"], "unrecognized arguments: --bogus"),
    (["train", "--data", "d", "--variant", "zz"],
     "argument --variant: invalid choice: 'zz'"),
    (["train", "--data", "d", "--iters", "abc"],
     "argument --iters: invalid int value: 'abc'"),
    (["eval", "--data", "d"],
     "the following arguments are required: --checkpoint"),
    ([], "the following arguments are required: command"),
    (["--config"], "argument --config: expected one argument"),
], ids=["unknown-flag", "bad-choice", "bad-type", "missing-required",
        "no-command", "config-without-path"])
def test_usage_error_exit_code(argv, message, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage: mrn" in err
    assert message in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("flag,value,message", [
    ("--dim", "0", "d_joint must be >= 1, got 0"),
    ("--d-v", "0", "d_v must be >= 1, got 0"),
    ("--d-q", "-3", "d_q must be >= 1, got -3"),
    ("--d-emb", "0", "d_emb must be >= 1, got 0"),
    ("--lr", "-1", "learning rate -1.0 must be finite and >= 0"),
    ("--lr", "nan", "learning rate nan must be finite and >= 0"),
])
def test_train_degenerate_config_exit_code(workdir, tmp_path, capsys, flag,
                                           value, message):
    out = tmp_path / "degenerate"
    rc = main(train_args(workdir, str(out), [flag, value]))
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("dim,budget_dim", [("0", "8"), ("8", "0")])
def test_ablate_zero_dim_exit_code(workdir, tmp_path, capsys, dim,
                                   budget_dim):
    rc = main(["ablate", "--data", str(workdir / "ds.mrnd"),
               "--out", str(tmp_path), "--iters", "2", "--batch", "4",
               "--dim", dim, "--budget-dim", budget_dim])
    assert rc == 1
    assert "d_joint must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "ablation.csv").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_model_too_large_to_allocate_exit_code(workdir, tmp_path, capsys,
                                               command):
    # a (d, 10**12) parameter needs terabytes: numpy's allocation fails at
    # once, without touching memory
    rc = main([command, "--data", str(workdir / "ds.mrnd"),
               "--out", str(tmp_path), "--iters", "2", "--batch", "4",
               "--dim", str(10**12)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot allocate the model" in err and "--dim" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_eval_bad_checkpoint_header_exit_code(workdir, tmp_path, capsys):
    path = tmp_path / "bad.ckpt"
    hb = b'{"vocab_size": 5}'
    path.write_bytes(b"MRNCKPT1" + len(hb).to_bytes(8, "little") + hb)
    rc = main(["eval", "--data", str(workdir / "ds.mrnd"), "--checkpoint",
               str(path), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert (f"bad header at byte 16: header is missing field 'd_emb' in "
            f"{path}") in err
    assert "Traceback" not in err


def edit_first_example(header, **fields):
    """header with fields replaced or, when None, deleted in example 0."""
    example = header["examples"][0]
    for name, value in fields.items():
        if value is None:
            del example[name]
        else:
            example[name] = value
    return header


@pytest.mark.parametrize("edit, message", [
    (lambda h: {}, "header is missing field 'seed'"),
    (lambda h: [], "header is not a JSON object"),
    (lambda h: edit_first_example(h, caption=None),
     "example 0 is missing field 'caption'"),
    (lambda h: edit_first_example(h, answer_type="Y/O"),
     "example 0 field 'answer_type' is 'Y/O', not one of Y/N, Number, Other"),
], ids=["empty-object", "list", "no-caption", "bad-answer-type"])
def test_eval_bad_dataset_header_exit_code(workdir, tmp_path, capsys, edit,
                                           message):
    blob = (workdir / "ds.mrnd").read_bytes()
    (hlen,) = struct.unpack("<Q", blob[12:20])
    hb = json.dumps(edit(json.loads(blob[20:20 + hlen]))).encode()
    bad = tmp_path / "bad.mrnd"
    bad.write_bytes(blob[:12] + struct.pack("<Q", len(hb)) + hb
                    + blob[20 + hlen:])
    rc = main(["eval", "--data", str(bad), "--checkpoint",
               str(tmp_path / "unused.ckpt"), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"bad header at byte 20: {message} in {bad}" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A 10-example dataset and a one-block checkpoint that evaluates on it."""
    d = tmp_path_factory.mktemp("cut")
    data_mod.save(data_mod.generate(4, 10), str(d / "ds.mrnd"))
    model = VqaModel(vocab_size=len(data_mod.QUESTION_WORDS), d_emb=3,
                     dims=ModelDims(d_q=4, d_v=5, d_joint=5, n_blocks=1,
                                    n_answers=len(data_mod.ANSWER_VOCAB)),
                     cnn_config=CnnConfig(channels1=2, channels2=3, d_out=5))
    save_checkpoint(model, str(d / "m.ckpt"))
    assert quiet_eval(d / "ds.mrnd", d / "m.ckpt", d / "out") == (0, "")
    return d


def quiet_eval(data, ckpt, out):
    """Exit code and stderr of mrn eval on the train split."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                   "--out", str(out), "--split", "train"])
    return rc, err.getvalue()


def set_d_joint(blob):
    """The checkpoint blob with its header's dims.d_joint set to 10**7."""
    hlen = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + hlen])
    header["dims"]["d_joint"] = 10**7
    hb = json.dumps(header).encode()
    return blob[:8] + len(hb).to_bytes(8, "little") + hb + blob[16 + hlen:]


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: blob + blob,
     "{n} bytes after the last parameter at byte {n}"),
    (set_d_joint, "bad header at byte 16: Unable to allocate"),
], ids=["two-checkpoints", "d_joint-too-large"])
def test_eval_checkpoint_trailing_bytes_or_impossible_dims_exit_code(
        small_files, corrupt, message):
    blob = (small_files / "m.ckpt").read_bytes()
    path = small_files / "bad-m.ckpt"
    path.write_bytes(corrupt(blob))
    rc, err = quiet_eval(small_files / "ds.mrnd", path, small_files / "out")
    assert rc == 1
    assert err.startswith(f"error: {message.format(n=len(blob))}")
    assert err.endswith(f" in {path}\n")


# the ids are the names these cases had when each format raised its own error
# type; both now raise FormatError
@pytest.mark.parametrize("name", [
    pytest.param("ds.mrnd", id="ds.mrnd-DatasetFormatError"),
    pytest.param("m.ckpt", id="m.ckpt-ValueError")])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_truncation_anywhere_is_a_typed_error(small_files, name, data):
    blob = (small_files / name).read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path = small_files / f"cut-{name}"
    path.write_bytes(blob[:cut])
    load = data_mod.load if name.endswith(".mrnd") else load_checkpoint
    with pytest.raises(FormatError) as info:
        load(str(path))
    assert str(path) in str(info.value)
    files = {"ds.mrnd": small_files / "ds.mrnd",
             "m.ckpt": small_files / "m.ckpt", name: path}
    rc, err = quiet_eval(files["ds.mrnd"], files["m.ckpt"],
                         small_files / "out")
    assert rc == 1 and str(path) in err


@pytest.mark.parametrize("name", ["ds.mrnd", "m.ckpt"])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_byte_flip_anywhere_is_a_typed_error_or_finite(small_files, name,
                                                       data):
    blob = bytearray((small_files / name).read_bytes())
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = small_files / f"flip-{name}"
    path.write_bytes(bytes(blob))
    files = {"ds.mrnd": small_files / "ds.mrnd",
             "m.ckpt": small_files / "m.ckpt", name: path}
    if name.endswith(".mrnd"):
        load = data_mod.load
        numbers = lambda ds: [e.image for e in ds.examples]
    else:
        load = load_checkpoint
        numbers = lambda m: [t.data for t in m.named_parameters().values()]
    try:
        loaded = load(str(path))
    except FormatError as exc:
        assert str(path) in str(exc)
        loaded = None
    else:
        assert all(np.isfinite(a).all() for a in numbers(loaded))
    rc, err = quiet_eval(files["ds.mrnd"], files["m.ckpt"],
                         small_files / "out")
    # a load that passed may still mismatch the other file: exit 1, named
    assert (rc == 0 and loaded is not None) or \
        (rc == 1 and str(path) in err), err


@pytest.mark.parametrize("bad", ["checkpoint", "dataset"])
@pytest.mark.parametrize("command", ["eval", "viz"])
def test_non_finite_input_exit_code(workdir, tmp_path, capsys, command, bad):
    ds = data_mod.load(str(workdir / "ds.mrnd"))
    model = VqaModel(vocab_size=len(ds.question_vocab), d_emb=3,
                     dims=ModelDims(d_q=4, d_v=5, d_joint=5, n_blocks=1,
                                    n_answers=len(ds.answer_vocab)),
                     cnn_config=CnnConfig(channels1=2, channels2=3, d_out=5))
    data, ckpt = workdir / "ds.mrnd", tmp_path / "m.ckpt"
    if bad == "checkpoint":
        model.cnn.params["conv1_w"].data[0, 0, 1, 1] = np.inf
        message = "parameter cnn.conv1_w at byte "
        named = ckpt
    else:
        first_val = next(i for i, e in enumerate(ds.examples)
                         if e.split == "val")
        ds.examples[first_val].image[0, 3, 4] = np.nan
        data = tmp_path / "nan.mrnd"
        data_mod.save(ds, str(data))
        message = f"example {first_val} image at byte "
        named = data
    save_checkpoint(model, str(ckpt))
    rc = main([command, "--data", str(data), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "out"), "--split", "val"])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and str(named) in err
    assert "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("command, mismatch, message", [
    ("eval", "vocab", "has vocab_size 6 but dataset"),
    ("viz", "vocab", "has vocab_size 6 but dataset"),
    ("eval", "answers", "has n_answers 3 but dataset"),
    ("viz", "answers", "has n_answers 3 but dataset"),
    ("eval", "image", "has image shape (3, 33, 33) but dataset"),
    ("viz", "image", "has image shape (3, 33, 33) but dataset"),
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
    elif mismatch == "answers":
        model = VqaModel(vocab_size=len(ds.question_vocab), dims=ModelDims(
            d_q=4, d_v=5, d_joint=5, n_answers=3, n_blocks=1))
        want = len(ds.answer_vocab)
    else:
        # 33 // 4 == 32 // 4: the parameter shapes fit 32x32 images too
        model = VqaModel(vocab_size=len(ds.question_vocab), dims=ModelDims(
            d_q=4, d_v=5, d_joint=5, n_answers=len(ds.answer_vocab),
            n_blocks=1), cnn_config=CnnConfig(image_size=33, d_out=5))
        want = (3, 32, 32)
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
    for name in ("conv_tanh_pool.x", "conv_tanh_pool.w", "model.gru.emb",
                 "model.cnn.conv1_w", "model.mrn.block1.w_q",
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


def test_gradcheck_detects_corrupted_stage_backward(monkeypatch, capsys):
    # negative control: break the conv stage's input gradient, which the
    # model check reaches only through conv1's parameters
    from mrn import autodiff as ad

    real_stage = ad.conv_tanh_pool

    def bad_stage(x, w, b, padding=1):
        out = real_stage(x, w, b, padding)
        if out._backward is not None:
            orig = out._backward

            def corrupted(g):
                orig(g)
                if x.requires_grad:
                    x.grad *= 1.5
            out._backward = corrupted
        return out

    monkeypatch.setattr(ad, "conv_tanh_pool", bad_stage)
    rc = main(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "FAIL  conv_tanh_pool.x" in out


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


def test_absent_answer_type_is_an_empty_cell_in_every_csv(tmp_path):
    # seed 3, 12 examples: the val split holds Y/N and Number questions
    # but no Other one, which has no accuracy rather than 0% or nan
    data = str(tmp_path / "ds.mrnd")
    assert main(["gen", "--seed", "3", "--n", "12", "--out", str(tmp_path),
                 "--data", data]) == 0
    small = ["--iters", "2", "--batch", "4"]
    run = str(tmp_path / "run")
    assert main(["train", "--data", data, "--out", run, *small]) == 0
    assert main(["eval", "--data", data, "--checkpoint",
                 os.path.join(run, "model.ckpt"), "--split", "val",
                 "--out", str(tmp_path / "eval")]) == 0
    assert main(["ablate", "--data", data, "--out", str(tmp_path / "abl"),
                 *small, "--dim", "8", "--budget-dim", "8"]) == 0
    tables = [(os.path.join(run, "metrics.csv"), "val_"),
              (str(tmp_path / "eval" / "report.csv"), ""),
              (str(tmp_path / "abl" / "ablation.csv"), "")]
    for path, prefix in tables:
        rows = [dict(zip(lines[0].split(","), line.split(",")))
                for lines in [open(path).read().splitlines()]
                for line in lines[1:]]
        assert rows
        for row in rows:
            assert row[prefix + "other"] == ""
            for col in ("yn", "num"):
                assert 0.0 <= float(row[prefix + col]) <= 1.0


def test_eval_console_line_prints_an_absent_type_as_absent(tmp_path, capsys):
    # seed 3, 12 examples: the val split has no Other question
    data = str(tmp_path / "ds.mrnd")
    assert main(["gen", "--seed", "3", "--n", "12", "--out", str(tmp_path),
                 "--data", data]) == 0
    run = str(tmp_path / "run")
    assert main(["train", "--data", data, "--out", run, "--iters", "2",
                 "--batch", "4"]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", data, "--checkpoint",
                 os.path.join(run, "model.ckpt"), "--split", "val",
                 "--out", str(tmp_path / "eval")]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = open(tmp_path / "eval" / "report.csv").read().splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["oe", "mc"]
    for line, row in zip(lines[:2], report[1:]):
        cells = dict(kv.split("=") for kv in line.split(": ")[1].split())
        assert list(cells) == ["all", "Y/N", "Number", "Other"]
        assert cells["Other"] == "absent" and row.endswith(",")
        # a present type reads as in report.csv, to its four decimals
        for cell, value in zip(list(cells.values())[:3], row.split(",")[1:4]):
            assert cell == f"{float(value):.4f}"
