"""Synthetic grid-of-shapes VQA data.

Scenes are 4x4 grids of colored squares/circles/triangles rendered to a
32x32 RGB image. Questions come from three templates (existence, counting,
color naming) with answers in a ~20-word closed vocabulary. Each example
carries ten consensus-noised "human" answers, an 18-candidate list that
always contains the ground truth, and a truthful scene caption. Everything
is a deterministic function of (seed, index).

save and load use the container of ``container.py``: magic MRNDATA1 and a
u32 version, a header holding the vocabularies, the image shape and every
example's fields, then one float64 image per example. What is specific to
datasets is checked here: the version, the header's fields and types, and
each example's answer type, split, ten humans and ids within the
vocabularies.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import container
from .container import FormatError, check_fields

GRID = 4
CELL = 8
IMAGE_SIZE = GRID * CELL
BACKGROUND = 0.15

COLORS = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
    "cyan": (0.0, 1.0, 1.0),
    "magenta": (1.0, 0.0, 1.0),
}
COLOR_NAMES = list(COLORS)
SHAPES = ["square", "circle", "triangle"]
PLURALS = {"square": "squares", "circle": "circles", "triangle": "triangles"}

ANSWER_VOCAB = (["yes", "no"] + [str(i) for i in range(9)] + COLOR_NAMES + SHAPES)
ANSWER_ID = {a: i for i, a in enumerate(ANSWER_VOCAB)}

QUESTION_WORDS = (["<pad>", "is", "there", "a", "how", "many", "what", "color",
                   "the"] + COLOR_NAMES + SHAPES + list(PLURALS.values()))
WORD_ID = {w: i for i, w in enumerate(QUESTION_WORDS)}


@dataclass
class SceneObject:
    row: int
    col: int
    shape: str
    color: str


@dataclass
class Scene:
    objects: list

    def count(self, shape=None, color=None):
        return sum(1 for o in self.objects
                   if (shape is None or o.shape == shape)
                   and (color is None or o.color == color))


@dataclass
class ToyVqaExample:
    image: np.ndarray          # (3, 32, 32) in [0, 1]
    question: list             # token ids
    question_text: str
    answer: str                # ground truth
    answer_id: int
    answer_type: str           # "Y/N" | "Number" | "Other"
    humans: list               # 10 answer strings
    candidates: list           # 18 answer ids (ground truth included)
    caption: str
    split: str
    scene: Scene


@dataclass
class Dataset:
    seed: int
    examples: list
    question_vocab: list = field(default_factory=lambda: list(QUESTION_WORDS))
    answer_vocab: list = field(default_factory=lambda: list(ANSWER_VOCAB))

    def split(self, tag):
        return [e for e in self.examples if e.split == tag]


# ---------------------------------------------------------------------------
# rendering

def render(scene):
    img = np.full((3, IMAGE_SIZE, IMAGE_SIZE), BACKGROUND)
    for obj in scene.objects:
        r0, c0 = obj.row * CELL, obj.col * CELL
        rgb = COLORS[obj.color]
        mask = _shape_mask(obj.shape)
        for ch in range(3):
            block = img[ch, r0:r0 + CELL, c0:c0 + CELL]
            block[mask] = rgb[ch]
    return img


def _shape_mask(shape):
    m = np.zeros((CELL, CELL), dtype=bool)
    if shape == "square":
        m[1:7, 1:7] = True
    elif shape == "circle":
        yy, xx = np.mgrid[0:CELL, 0:CELL]
        m = (yy - 3.5) ** 2 + (xx - 3.5) ** 2 <= 3.0 ** 2
    elif shape == "triangle":
        for r in range(1, 7):
            half = (r - 1) // 2 + 1
            m[r, max(0, 4 - half):min(CELL, 3 + half)] = True
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return m


# ---------------------------------------------------------------------------
# ground-truth semantics

def answer_question(scene, qtype, arg):
    """Scene interpreter; arg is (color, shape) / shape / shape per type."""
    if qtype == "yn":
        color, shape = arg
        return "yes" if scene.count(shape=shape, color=color) > 0 else "no"
    if qtype == "num":
        return str(scene.count(shape=arg))
    if qtype == "other":
        matches = [o for o in scene.objects if o.shape == arg]
        if len(matches) != 1:
            raise ValueError("color question needs exactly one such shape")
        return matches[0].color
    raise ValueError(f"unknown question type {qtype!r}")


def _question_tokens(qtype, arg):
    if qtype == "yn":
        color, shape = arg
        words = ["is", "there", "a", color, shape]
    elif qtype == "num":
        words = ["how", "many", PLURALS[arg]]
    else:
        words = ["what", "color", "is", "the", arg]
    return [WORD_ID[w] for w in words], " ".join(words)


def _caption(scene):
    return " and ".join(f"a {o.color} {o.shape}" for o in scene.objects)


# ---------------------------------------------------------------------------
# generation

ANSWER_TYPE_BY_QTYPE = {"yn": "Y/N", "num": "Number", "other": "Other"}
SPLITS = ("train", "val", "test")
HUMANS = 10
# of the HUMANS answers, this many are a wrong answer of the same type
WRONG_HUMANS = 1
_TYPE_POOLS = {
    "Y/N": ["yes", "no"],
    "Number": [str(i) for i in range(9)],
    "Other": COLOR_NAMES + SHAPES,
}


def _sample_scene(rng):
    cells = rng.choice(GRID * GRID, size=int(rng.integers(1, 7)),
                       replace=False)
    objs = []
    for cell in cells:
        objs.append(SceneObject(
            row=int(cell) // GRID, col=int(cell) % GRID,
            shape=SHAPES[rng.integers(len(SHAPES))],
            color=COLOR_NAMES[rng.integers(len(COLOR_NAMES))]))
    return Scene(objs)


def make_example(seed, index, split="train"):
    rng = np.random.default_rng((seed, index))
    qtype = ("yn", "num", "other")[rng.integers(3)]
    while True:
        scene = _sample_scene(rng)
        if qtype == "yn":
            arg = (COLOR_NAMES[rng.integers(len(COLOR_NAMES))],
                   SHAPES[rng.integers(len(SHAPES))])
        elif qtype == "num":
            arg = SHAPES[rng.integers(len(SHAPES))]
        else:
            singles = [s for s in SHAPES if scene.count(shape=s) == 1]
            if not singles:
                continue
            arg = singles[rng.integers(len(singles))]
        break
    answer = answer_question(scene, qtype, arg)
    atype = ANSWER_TYPE_BY_QTYPE[qtype]
    pool = [a for a in _TYPE_POOLS[atype] if a != answer]
    distractors = [pool[rng.integers(len(pool))] for _ in range(WRONG_HUMANS)]
    humans = [answer] * (HUMANS - WRONG_HUMANS) + distractors
    perm = rng.permutation(HUMANS)
    humans = [humans[i] for i in perm]
    cand = {ANSWER_ID[answer]} | {ANSWER_ID[d] for d in distractors}
    rest = [i for i in range(len(ANSWER_VOCAB)) if i not in cand]
    fill = rng.choice(len(rest), size=18 - len(cand), replace=False)
    candidates = sorted(cand | {rest[i] for i in fill})
    tokens, text = _question_tokens(qtype, arg)
    return ToyVqaExample(
        image=render(scene), question=tokens, question_text=text,
        answer=answer, answer_id=ANSWER_ID[answer], answer_type=atype,
        humans=humans, candidates=candidates, caption=_caption(scene),
        split=split, scene=scene)


def generate(seed, n, split_ratios=(0.7, 0.2, 0.1)):
    """Deterministic dataset of n examples with train/val/test tags."""
    if n < 1:
        raise ValueError("need at least one example")
    n_train = int(round(n * split_ratios[0]))
    n_val = int(round(n * split_ratios[1]))
    examples = []
    for i in range(n):
        split = "train" if i < n_train else ("val" if i < n_train + n_val
                                             else "test")
        examples.append(make_example(seed, i, split))
    return Dataset(seed=seed, examples=examples)


# ---------------------------------------------------------------------------
# serialization

DATA_MAGIC = b"MRNDATA1"
DATA_VERSION = 1


def _example_meta(e):
    return {
        "question": e.question, "question_text": e.question_text,
        "answer": e.answer, "answer_id": e.answer_id,
        "answer_type": e.answer_type, "humans": e.humans,
        "candidates": e.candidates, "caption": e.caption, "split": e.split,
        "scene": [[o.row, o.col, o.shape, o.color] for o in e.scene.objects],
    }


def save(dataset, path):
    header = {
        "version": DATA_VERSION,
        "seed": dataset.seed,
        "question_vocab": dataset.question_vocab,
        "answer_vocab": dataset.answer_vocab,
        "examples": [_example_meta(e) for e in dataset.examples],
        "image_shape": [3, IMAGE_SIZE, IMAGE_SIZE],
    }
    container.write(path, DATA_MAGIC + DATA_VERSION.to_bytes(4, "little"),
                    header, [e.image for e in dataset.examples])


# field -> JSON type; [kind] is a list whose items all have that type
_HEADER_FIELDS = {"seed": int, "question_vocab": [str], "answer_vocab": [str],
                  "image_shape": [int], "examples": list}
_EXAMPLE_FIELDS = {"question": [int], "question_text": str, "answer": str,
                   "answer_id": int, "answer_type": str, "humans": [str],
                   "candidates": [int], "caption": str, "split": str,
                   "scene": [list]}


def _check_header(header, bad):
    """Check every header field load uses; bad(problem) names it."""
    check_fields(header, _HEADER_FIELDS, "header", bad)
    if len(header["image_shape"]) != 3 or min(header["image_shape"]) < 1:
        raise bad(f"image_shape {header['image_shape']} is not 3 positive "
                  "ints")
    n_words = len(header["question_vocab"])
    n_answers = len(header["answer_vocab"])
    answer_types = tuple(ANSWER_TYPE_BY_QTYPE.values())
    for i, meta in enumerate(header["examples"]):
        check_fields(meta, _EXAMPLE_FIELDS, f"example {i}", bad)
        for name in ("question", "candidates"):
            if not meta[name]:
                raise bad(f"example {i} field {name!r} is empty")
        if len(meta["humans"]) != HUMANS:
            raise bad(f"example {i} field 'humans' holds "
                      f"{len(meta['humans'])} answers, expected {HUMANS}")
        for name, allowed in (("answer_type", answer_types),
                              ("split", SPLITS)):
            if meta[name] not in allowed:
                raise bad(f"example {i} field {name!r} is {meta[name]!r}, "
                          f"not one of {', '.join(allowed)}")
        if any(len(o) != 4 for o in meta["scene"]):
            raise bad(f"example {i} field 'scene' needs [row, col, shape, "
                      "color] entries")
        for name, ids, n in (("question", meta["question"], n_words),
                             ("answer_id", [meta["answer_id"]], n_answers),
                             ("candidates", meta["candidates"], n_answers)):
            if ids and not (min(ids) >= 0 and max(ids) < n):
                raise bad(f"example {i} field {name!r} holds an id outside "
                          f"[0, {n})")


def load(path):
    with open(path, "rb") as f:
        r = container.Reader(f, path)
        r.magic(DATA_MAGIC)
        version = int.from_bytes(r.read(4, "version"), "little")
        if version != DATA_VERSION:
            raise FormatError(f"unsupported version {version} at byte 8 in "
                              f"{path}")
        header = r.header()
        _check_header(header, r.bad_header)
        shape = tuple(header["image_shape"])
        examples = []
        for i, meta in enumerate(header["examples"]):
            image = r.floats(shape, f"example {i} image")
            scene = Scene([SceneObject(*o) for o in meta["scene"]])
            examples.append(ToyVqaExample(
                image=image, question=list(meta["question"]),
                question_text=meta["question_text"], answer=meta["answer"],
                answer_id=meta["answer_id"], answer_type=meta["answer_type"],
                humans=list(meta["humans"]),
                candidates=list(meta["candidates"]), caption=meta["caption"],
                split=meta["split"], scene=scene))
        r.end("image")
    return Dataset(seed=header["seed"], examples=examples,
                   question_vocab=list(header["question_vocab"]),
                   answer_vocab=list(header["answer_vocab"]))


def export_jsonl(dataset, path):
    """Human-readable dump; images are replaced by a content hash."""
    with open(path, "w") as f:
        for e in dataset.examples:
            meta = _example_meta(e)
            meta["image_sha256"] = hashlib.sha256(
                np.ascontiguousarray(e.image).tobytes()).hexdigest()
            f.write(json.dumps(meta, sort_keys=True) + "\n")
