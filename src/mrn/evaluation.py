"""VQA evaluation protocol: consensus metric, answer types, protocols,
candidate masking, caption postprocessing."""

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .encoders import QuestionBatch

ANSWER_TYPES = ("Y/N", "Number", "Other")


def normalize_answer(s):
    return s.strip().lower()


def vqa_accuracy(predicted, humans):
    """min(#humans matching the prediction / 3, 1)."""
    if len(humans) != 10:
        raise ValueError(f"expected exactly 10 human answers, got {len(humans)}")
    pred = normalize_answer(predicted)
    k = sum(1 for h in humans if normalize_answer(h) == pred)
    return min(k / 3.0, 1.0)


def classify_answer_type(answer):
    a = normalize_answer(answer)
    if a in ("yes", "no"):
        return "Y/N"
    if a.isdigit():
        return "Number"
    return "Other"


def multiple_choice_mask(scores, candidates):
    """A copy of scores with every answer outside the candidates at -inf."""
    if len(candidates) == 0:
        raise ValueError("empty candidate set")
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    if cand.min() < 0 or cand.max() >= len(scores):
        raise IndexError("candidate id out of range")
    out = np.full_like(scores, -np.inf)
    out[cand] = scores[cand]
    return out


@functools.lru_cache(maxsize=8)
def _other_answers(vocab):
    """(id, normalized answer) of every Other-type answer of a vocab tuple."""
    return tuple((i, normalize_answer(ans)) for i, ans in enumerate(vocab)
                 if classify_answer_type(ans) == "Other")


def caption_postprocess(pre_softmax, caption, vocab):
    """+1 bump for non-number, non-yes/no answers occurring as caption tokens."""
    tokens = set(normalize_answer(caption).split())
    out = np.array(pre_softmax, dtype=np.float64, copy=True)
    for i, ans in _other_answers(tuple(vocab)):
        if ans in tokens:
            out[i] += 1.0
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
    postprocessing), among the candidates under MC. Softmax keeps the
    order of the logits, so it is not taken.
    """
    vocab = vocab if vocab is not None else _default_vocab()
    batch = QuestionBatch.pad([e.question for e in examples])
    preds = []
    for e, logits in zip(examples, model.predict_logits(
            [e.image for e in examples], batch)):
        if postprocess:
            logits = caption_postprocess(logits, e.caption, vocab)
        if protocol == "mc":
            if not getattr(e, "candidates", None):
                raise ValueError("multiple-choice protocol needs candidate "
                                 "lists")
            logits = multiple_choice_mask(logits, e.candidates)
        preds.append(int(np.argmax(logits)))
    return preds


def predict(model, example, protocol="oe", postprocess=False, vocab=None):
    """Predicted answer id for one example under the given protocol."""
    return predict_batch(model, [example], protocol, postprocess, vocab)[0]


# Examples per predict_batch call, i.e. per question/fusion forward. On a
# 256-example split at the pinned model shape (2-vCPU VM, one BLAS thread),
# evaluate's cost per example fell from 0.21 ms at 8 to 0.16 ms at 64 and
# no further at 128 or 256, while the memory it allocates at its peak rose
# past 64 (3.0 MB at 64, 3.8 MB at 128, 7.6 MB at 256). So a 50-example
# split is one pass.
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
        for e, pred_id in zip(chunk, preds):
            score = round(3 * vqa_accuracy(vocab[pred_id], e.humans))
            thirds.setdefault(e.answer_type, []).append(score)
    return EvalReport.aggregate(protocol, thirds)


def _default_vocab():
    from .data import ANSWER_VOCAB
    return ANSWER_VOCAB
