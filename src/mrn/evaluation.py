"""VQA evaluation protocol: consensus metric, answer types, protocols,
candidate masking, caption postprocessing."""

import functools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .encoders import QuestionBatch

ANSWER_TYPES = ("Y/N", "Number", "Other")


def normalize_answer(s):
    return s.strip().lower()


# This cache and the caption cache below are bounded so that a long run over
# many datasets cannot grow them without end; a split of 4096 examples fits
# either one.
@functools.lru_cache(maxsize=4096)
def _human_counts(humans):
    """Normalized answer -> count, for a tuple of exactly ten answers."""
    if len(humans) != 10:
        raise ValueError(f"expected exactly 10 human answers, got {len(humans)}")
    return Counter(map(normalize_answer, humans))


def consensus_thirds(predicted, humans):
    """Each prediction's score min(#humans matching it / 3, 1), in thirds.

    predicted holds answer strings and humans one list of ten answers per
    prediction. The counts of an answer list are cached on its values, so
    an edited list is counted afresh. Both are read one pair at a time, so
    the first bad pair raises.
    """
    return [min(_human_counts(tuple(h)).get(normalize_answer(p), 0), 3)
            for p, h in zip(predicted, humans)]


def vqa_accuracy(predicted, humans):
    """min(#humans matching the prediction / 3, 1)."""
    return consensus_thirds([predicted], [humans])[0] / 3.0


def classify_answer_type(answer):
    a = normalize_answer(answer)
    if a in ("yes", "no"):
        return "Y/N"
    if a.isdigit():
        return "Number"
    return "Other"


def _row_index(id_lists):
    """(rows, ids) index arrays that pick every id of every row's list."""
    lengths = np.fromiter(map(len, id_lists), np.intp, len(id_lists))
    rows = np.repeat(np.arange(len(id_lists)), lengths)
    return rows, np.fromiter(chain.from_iterable(id_lists), np.int64,
                             rows.size)


def _check_rows(scores, per_row, what):
    if len(per_row) != len(scores):
        raise ValueError(f"{len(scores)} score rows but {len(per_row)} {what}")


def multiple_choice_mask(scores, candidates):
    """A copy of scores with every answer outside the candidates at -inf.

    scores (A,) take one candidate set; scores (n, A) take a sequence of n
    sets, one per row, and the first row with an empty set or an id outside
    0..A-1 raises.
    """
    scores = np.asarray(scores)
    if scores.ndim == 1:
        return multiple_choice_mask(scores[None], [candidates])[0]
    _check_rows(scores, candidates, "candidate sets")
    rows, cand = _row_index(candidates)
    empty = next((k for k, c in enumerate(candidates) if len(c) == 0),
                 len(candidates))
    bad = rows[(cand < 0) | (cand >= scores.shape[1])]
    if bad.size and bad[0] < empty:
        raise IndexError("candidate id out of range")
    if empty < len(candidates):
        raise ValueError("empty candidate set")
    out = np.full_like(scores, -np.inf)
    out[rows, cand] = scores[rows, cand]
    return out


@functools.lru_cache(maxsize=8)
def _caption_bumps(vocab):
    """For a vocab tuple, a cached map from a caption to the ids of the
    Other-type answers that occur among its tokens."""
    other = [(i, normalize_answer(ans)) for i, ans in enumerate(vocab)
             if classify_answer_type(ans) == "Other"]

    @functools.lru_cache(maxsize=4096)
    def bumps(caption):
        tokens = set(normalize_answer(caption).split())
        return tuple(i for i, ans in other if ans in tokens)
    return bumps


def caption_postprocess(pre_softmax, caption, vocab):
    """+1 bump for non-number, non-yes/no answers occurring as caption tokens.

    Returns a float64 copy. Scores (A,) take one caption; scores (n, A) take
    a sequence of n captions, one per row, and every row's bumps go in by
    one indexed add.
    """
    out = np.array(pre_softmax, dtype=np.float64, copy=True)
    captions = [caption] if out.ndim == 1 else caption
    rows = out.reshape(-1, out.shape[-1])
    _check_rows(rows, captions, "captions")
    bumps = _caption_bumps(tuple(vocab))
    rows[_row_index([bumps(c) for c in captions])] += 1.0
    return out


@dataclass
class EvalReport:
    protocol: str
    per_type: dict = field(default_factory=dict)    # type -> accuracy
    counts: dict = field(default_factory=dict)      # type -> n examples
    overall: float = 0.0

    @staticmethod
    def aggregate(protocol, thirds_by_type):
        """Report from each type's per-example scores in thirds (0..3).

        Sums are exact integers, divided once, so every accuracy is the
        float nearest the exact mean.
        """
        report = EvalReport(protocol=protocol)
        total = n = 0
        for t in ANSWER_TYPES:
            thirds = thirds_by_type.get(t, [])
            report.counts[t] = len(thirds)
            if thirds:
                s = sum(thirds)
                report.per_type[t] = float(Fraction(s, 3 * len(thirds)))
                total += s
                n += len(thirds)
        report.overall = float(Fraction(total, 3 * n)) if n else 0.0
        return report


def predict_batch(model, examples, protocol="oe", postprocess=False,
                  vocab=None):
    """Predicted answer ids for examples, scored in one forward.

    The prediction is the answer with the largest logit (after
    postprocessing), among the candidates under MC; the first such answer
    on a tie. Softmax keeps the order of the logits, so it is not taken.
    Each step is one array operation over the whole batch.
    """
    if not examples:
        return []
    vocab = vocab if vocab is not None else _default_vocab()
    batch = QuestionBatch.pad([e.question for e in examples])
    logits = model.predict_logits([e.image for e in examples], batch)
    if postprocess:
        logits = caption_postprocess(logits, [e.caption for e in examples],
                                     vocab)
    if protocol == "mc":
        candidates = [getattr(e, "candidates", None) for e in examples]
        # the rows before the first one without candidates are checked
        # first, so the earliest bad row raises
        first = next((i for i, c in enumerate(candidates) if not c),
                     len(candidates))
        logits = multiple_choice_mask(logits[:first], candidates[:first])
        if first < len(candidates):
            raise ValueError("multiple-choice protocol needs candidate "
                             "lists")
    return np.argmax(logits, axis=1).tolist()


def predict(model, example, protocol="oe", postprocess=False, vocab=None):
    """Predicted answer id for one example under the given protocol."""
    return predict_batch(model, [example], protocol, postprocess, vocab)[0]


# Examples per predict_batch call, i.e. per question/fusion forward. On a
# 256-example split at the pinned model shape, scored MC with
# postprocessing (2-vCPU VM, one BLAS thread), a warm evaluate (every
# image's CNN features stored; median of 30) cost 0.138 ms per example at
# 8, 0.054 at 64, 0.051 at 128 and 0.054 at 256; a cold one (fresh model,
# CNN run; median of 10) 0.29, 0.21, 0.20 and 0.20 ms. The memory it
# allocates at its peak rose past 64: 1.9 MB warm and 3.7 MB cold at 64,
# 3.8 / 4.5 MB at 128, 7.5 / 8.2 MB at 256. So a 50-example split is one
# pass.
EVAL_BATCH = 64


def evaluate(model, examples, protocol="oe", postprocess=False, vocab=None):
    """Score a model on a list of examples; returns an EvalReport."""
    if protocol not in ("oe", "mc"):
        raise ValueError(f"unknown protocol {protocol!r}")
    vocab = vocab if vocab is not None else _default_vocab()
    thirds = {}
    for start in range(0, len(examples), EVAL_BATCH):
        chunk = examples[start:start + EVAL_BATCH]
        preds = predict_batch(model, chunk, protocol, postprocess, vocab)
        for e, score in zip(chunk, consensus_thirds(
                (vocab[i] for i in preds), (e.humans for e in chunk))):
            thirds.setdefault(e.answer_type, []).append(score)
    return EvalReport.aggregate(protocol, thirds)


def _default_vocab():
    from .data import ANSWER_VOCAB
    return ANSWER_VOCAB
