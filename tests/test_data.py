import hashlib
import json
import os
import struct
from collections import Counter

import numpy as np
import pytest

from mrn import data as data_mod
from mrn.container import FormatError
from mrn.data import ANSWER_VOCAB, BACKGROUND, CELL, COLORS, Scene, \
    SceneObject, answer_question, export_jsonl, generate, load, render, save


def test_generate_deterministic():
    a = generate(7, 40)
    b = generate(7, 40)
    for ea, eb in zip(a.examples, b.examples):
        assert np.array_equal(ea.image, eb.image)
        assert ea.question == eb.question
        assert ea.humans == eb.humans
        assert ea.candidates == eb.candidates


def test_type_balance_at_3000():
    ds = generate(1, 3000)
    counts = Counter(e.answer_type for e in ds.examples)
    for t in ("Y/N", "Number", "Other"):
        assert abs(counts[t] / 3000 - 1 / 3) < 0.05


def test_splits_cover_and_are_tagged():
    ds = generate(2, 100)
    counts = Counter(e.split for e in ds.examples)
    assert counts["train"] == 70 and counts["val"] == 20 and counts["test"] == 10


def test_modal_human_answer_is_ground_truth():
    ds = generate(3, 300)
    for e in ds.examples:
        modal, _ = Counter(e.humans).most_common(1)[0]
        assert modal == e.answer


def test_candidates_contain_truth_and_every_human_answer():
    ds = generate(4, 200)
    for e in ds.examples:
        assert len(e.candidates) == 18
        assert len(set(e.candidates)) == 18
        for h in set(e.humans):
            assert data_mod.ANSWER_ID[h] in e.candidates


def test_exactly_ten_humans_with_consensus_noise():
    ds = generate(5, 100)
    for e in ds.examples:
        assert len(e.humans) == 10
        assert e.humans.count(e.answer) == 9


# ---------------------------------------------------------------------------
# rendering

def test_empty_cells_are_background():
    scene = Scene([SceneObject(0, 0, "square", "red")])
    img = render(scene)
    assert np.all(img[:, CELL:, :] == BACKGROUND)
    assert np.all(img[:, :, CELL:] == BACKGROUND)


def test_red_square_exact_rectangle():
    scene = Scene([SceneObject(1, 2, "square", "red")])
    img = render(scene)
    r0, c0 = CELL, 2 * CELL
    patch = img[:, r0 + 1:r0 + 7, c0 + 1:c0 + 7]
    assert np.all(patch[0] == 1.0) and np.all(patch[1] == 0.0) \
        and np.all(patch[2] == 0.0)
    # a one-pixel border inside the cell stays background
    assert np.all(img[:, r0, c0:c0 + CELL] == BACKGROUND)


def test_two_objects_disjoint_regions():
    scene = Scene([SceneObject(0, 0, "circle", "blue"),
                   SceneObject(3, 3, "triangle", "green")])
    img = render(scene)
    blue = (img[2] == 1.0) & (img[0] == 0.0)
    green = (img[1] == 1.0) & (img[0] == 0.0) & (img[2] == 0.0)
    assert blue[:CELL, :CELL].any() and not blue[CELL:, CELL:].any()
    assert green[3 * CELL:, 3 * CELL:].any()
    assert not (blue & green).any()


def test_render_deterministic_function_of_scene():
    scene = Scene([SceneObject(2, 2, "triangle", "magenta")])
    assert np.array_equal(render(scene), render(scene))


# ---------------------------------------------------------------------------
# ground-truth soundness against an independent interpreter

def independent_answer(example):
    """Straight-line re-interpretation from the question text and scene."""
    words = example.question_text.split()
    objs = example.scene.objects
    if words[0] == "is":
        color, shape = words[3], words[4]
        found = any(o.color == color and o.shape == shape for o in objs)
        return "yes" if found else "no"
    if words[0] == "how":
        plural = words[2]
        shape = {v: k for k, v in data_mod.PLURALS.items()}[plural]
        return str(sum(1 for o in objs if o.shape == shape))
    shape = words[4]
    (match,) = [o for o in objs if o.shape == shape]
    return match.color


def test_ground_truth_soundness_1000_examples():
    ds = generate(6, 1000)
    for e in ds.examples:
        assert independent_answer(e) == e.answer


def test_caption_truthful_for_other_answers():
    ds = generate(8, 500)
    for e in ds.examples:
        if e.answer_type == "Other":
            assert e.answer in e.caption.split()


def test_answer_question_rejects_ambiguous_color_query():
    scene = Scene([SceneObject(0, 0, "square", "red"),
                   SceneObject(1, 1, "square", "blue")])
    with pytest.raises(ValueError):
        answer_question(scene, "other", "square")


# ---------------------------------------------------------------------------
# serialization

def test_save_load_round_trip(tmp_path):
    ds = generate(9, 30)
    path = os.path.join(tmp_path, "ds.mrnd")
    save(ds, path)
    loaded = load(path)
    assert loaded.seed == ds.seed
    assert loaded.answer_vocab == ds.answer_vocab
    for a, b in zip(ds.examples, loaded.examples):
        assert np.array_equal(a.image, b.image)
        assert a.question == b.question
        assert a.humans == b.humans
        assert a.candidates == b.candidates
        assert a.caption == b.caption
        assert a.split == b.split
        assert [vars(o) for o in a.scene.objects] == \
            [vars(o) for o in b.scene.objects]


def test_truncated_file_parse_error(tmp_path):
    ds = generate(9, 5)
    path = os.path.join(tmp_path, "ds.mrnd")
    save(ds, path)
    data = open(path, "rb").read()
    cut = os.path.join(tmp_path, "cut.mrnd")
    with open(cut, "wb") as f:
        f.write(data[:len(data) - 100])
    with pytest.raises(FormatError, match="byte"):
        load(cut)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_pixel_names_example_and_offset(tmp_path, value):
    ds = generate(9, 3)
    ds.examples[1].image[2, 5, 7] = value
    path = os.path.join(tmp_path, "ds.mrnd")
    save(ds, path)
    (hlen,) = struct.unpack("<Q", open(path, "rb").read()[12:20])
    offset = 20 + hlen + ds.examples[0].image.nbytes
    with pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value) == (f"example 1 image at byte {offset} holds a "
                               f"non-finite value in {path}")


def test_huge_image_shape_is_truncation_without_allocating(tmp_path,
                                                          monkeypatch):
    good = os.path.join(tmp_path, "good.mrnd")
    save(generate(9, 2), good)
    bad = os.path.join(tmp_path, "bad.mrnd")
    with_header(good, bad, lambda h: {**h, "image_shape": [3, 10**6, 10**6]})
    (hlen,) = struct.unpack("<Q", open(bad, "rb").read()[12:20])
    left = os.path.getsize(bad) - 20 - hlen

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before checking the file size")
    monkeypatch.setattr(np, "empty", no_alloc)
    with pytest.raises(FormatError) as info:
        load(bad)
    assert str(info.value) == (f"truncated example 0 image at byte "
                               f"{20 + hlen}: needs {24 * 10**12} bytes, "
                               f"{left} left in {bad}")


def test_bytes_after_last_image_name_offset(tmp_path):
    path = os.path.join(tmp_path, "ds.mrnd")
    save(generate(9, 2), path)
    end = os.path.getsize(path)
    with open(path, "ab") as f:
        f.write(b"\0" * 24)
    with pytest.raises(FormatError) as info:
        load(path)
    assert str(info.value) == (f"24 bytes after the last image at byte {end} "
                               f"in {path}")


def with_header(src, dst, edit):
    """Copy the .mrnd file src to dst with its JSON header h set to edit(h)."""
    blob = open(src, "rb").read()
    (hlen,) = struct.unpack("<Q", blob[12:20])
    hb = json.dumps(edit(json.loads(blob[20:20 + hlen]))).encode()
    with open(dst, "wb") as f:
        f.write(blob[:12] + struct.pack("<Q", len(hb)) + hb + blob[20 + hlen:])


def drop_first_caption(header):
    del header["examples"][0]["caption"]
    return header


def set_first(**fields):
    """Edit that replaces fields of example 0."""
    def edit(header):
        header["examples"][0].update(fields)
        return header
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda h: {}, "header is missing field 'seed'"),
    (lambda h: [], "header is not a JSON object"),
    (drop_first_caption, "example 0 is missing field 'caption'"),
    (lambda h: {**h, "seed": True}, "field 'seed' should be int"),
    (lambda h: {**h, "image_shape": [3, 0, 32]}, "not 3 positive ints"),
    (lambda h: {**h, "answer_vocab": ["yes", 1]},
     "'answer_vocab' should be list of str"),
    (lambda h: {**h, "question_vocab": h["question_vocab"][:2]},
     "example 0 field 'question' holds an id outside [0, 2)"),
    (lambda h: {**h, "answer_vocab": h["answer_vocab"][:1]},
     "example 0 field 'answer_id' holds an id outside [0, 1)"),
    (lambda h: {**h, "examples": [{**h["examples"][0], "question": []}]},
     "example 0 field 'question' is empty"),
    (set_first(answer_type="Y/O"), "example 0 field 'answer_type' is 'Y/O', "
     "not one of Y/N, Number, Other"),
    (set_first(humans=["yes"] * 9),
     "example 0 field 'humans' holds 9 answers, expected 10"),
    (set_first(candidates=[]), "example 0 field 'candidates' is empty"),
    (set_first(split="dev"),
     "example 0 field 'split' is 'dev', not one of train, val, test"),
], ids=["empty-object", "list", "no-caption", "bool-seed", "zero-dim",
        "mixed-vocab", "token-out-of-range", "answer-out-of-range",
        "empty-question", "bad-answer-type", "nine-humans",
        "no-candidates", "bad-split"])
def test_bad_header_names_field(tmp_path, edit, message):
    good = os.path.join(tmp_path, "good.mrnd")
    save(generate(9, 3), good)
    bad = os.path.join(tmp_path, "bad.mrnd")
    with_header(good, bad, edit)
    with pytest.raises(FormatError) as info:
        load(bad)
    msg = str(info.value)
    assert msg.startswith("bad header at byte 20: ") and message in msg
    assert msg.endswith(f" in {bad}")


def test_bad_magic_and_version(tmp_path):
    path = os.path.join(tmp_path, "junk.mrnd")
    with open(path, "wb") as f:
        f.write(b"WRONGMAG" + b"\0" * 40)
    with pytest.raises(FormatError, match="byte 0"):
        load(path)
    ds = generate(9, 2)
    good = os.path.join(tmp_path, "good.mrnd")
    save(ds, good)
    blob = bytearray(open(good, "rb").read())
    blob[8] = 99  # version field
    bad = os.path.join(tmp_path, "badver.mrnd")
    open(bad, "wb").write(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load(bad)


def test_file_hash_stable_across_runs(tmp_path):
    hashes = []
    for name in ("a.mrnd", "b.mrnd"):
        path = os.path.join(tmp_path, name)
        save(generate(10, 20), path)
        hashes.append(hashlib.sha256(open(path, "rb").read()).hexdigest())
    assert hashes[0] == hashes[1]


def test_jsonl_export(tmp_path):
    import json
    ds = generate(12, 8)
    path = os.path.join(tmp_path, "ds.jsonl")
    export_jsonl(ds, path)
    lines = open(path).read().splitlines()
    assert len(lines) == 8
    row = json.loads(lines[0])
    assert set(row) >= {"question", "answer", "humans", "candidates",
                        "caption", "split", "image_sha256"}


def test_vocab_sizes():
    assert len(ANSWER_VOCAB) == 20
    assert len(set(ANSWER_VOCAB)) == 20
    assert len(COLORS) == 6
