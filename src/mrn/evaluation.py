"""VQA evaluation protocol: consensus metric, answer types, protocols,
candidate masking, caption postprocessing."""

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


def multiple_choice_mask(probs, candidates):
    """Zero out probabilities outside the candidate set."""
    if len(candidates) == 0:
        raise ValueError("empty candidate set")
    cand = np.asarray(sorted(candidates), dtype=np.int64)
    if cand.min() < 0 or cand.max() >= len(probs):
        raise IndexError("candidate id out of range")
    out = np.zeros_like(probs)
    out[cand] = probs[cand]
    return out


def caption_postprocess(pre_softmax, caption, vocab):
    """+1 bump for non-number, non-yes/no answers occurring as caption tokens."""
    tokens = set(normalize_answer(caption).split())
    out = np.array(pre_softmax, dtype=np.float64, copy=True)
    for i, ans in enumerate(vocab):
        if classify_answer_type(ans) == "Other" and normalize_answer(ans) in tokens:
            out[i] += 1.0
    return out


@dataclass
class EvalReport:
    protocol: str
    per_type: dict = field(default_factory=dict)    # type -> accuracy
    counts: dict = field(default_factory=dict)      # type -> n examples
    overall: float = 0.0

    @staticmethod
    def aggregate(protocol, scores_by_type):
        report = EvalReport(protocol=protocol)
        total = Fraction(0)
        n = 0
        for t in ANSWER_TYPES:
            scores = scores_by_type.get(t, [])
            report.counts[t] = len(scores)
            if scores:
                s = sum(Fraction(x).limit_denominator(3) for x in scores)
                report.per_type[t] = float(s / len(scores))
                total += s
                n += len(scores)
        report.overall = float(total / n) if n else 0.0
        return report


def _softmax(z):
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def predict_batch(model, examples, protocol="oe", postprocess=False,
                  vocab=None):
    """Predicted answer ids for examples, scored in one forward."""
    vocab = vocab if vocab is not None else _default_vocab()
    images = np.stack([e.image for e in examples])
    batch = QuestionBatch.pad([e.question for e in examples])
    preds = []
    for e, logits in zip(examples, model.predict_logits(images, batch)):
        if postprocess:
            logits = caption_postprocess(logits, e.caption, vocab)
        probs = _softmax(logits)
        if protocol == "mc":
            if not getattr(e, "candidates", None):
                raise ValueError("multiple-choice protocol needs candidate "
                                 "lists")
            probs = multiple_choice_mask(probs, e.candidates)
        preds.append(int(np.argmax(probs)))
    return preds


def predict(model, example, protocol="oe", postprocess=False, vocab=None):
    """Predicted answer id for one example under the given protocol."""
    return predict_batch(model, [example], protocol, postprocess, vocab)[0]


# Examples scored per forward. A forward keeps every activation of its batch
# alive until it returns, so peak memory grows with the batch; 8 rows already
# spread the per-forward overhead without raising the peak.
EVAL_BATCH = 8


def evaluate(model, examples, protocol="oe", postprocess=False, vocab=None):
    """Score a model on a list of examples; returns an EvalReport."""
    if protocol not in ("oe", "mc"):
        raise ValueError(f"unknown protocol {protocol!r}")
    vocab = vocab if vocab is not None else _default_vocab()
    scores = {}
    for start in range(0, len(examples), EVAL_BATCH):
        chunk = examples[start:start + EVAL_BATCH]
        preds = predict_batch(model, chunk, protocol, postprocess, vocab)
        for e, pred_id in zip(chunk, preds):
            score = vqa_accuracy(vocab[pred_id], e.humans)
            scores.setdefault(e.answer_type, []).append(score)
    return EvalReport.aggregate(protocol, scores)


def _default_vocab():
    from .data import ANSWER_VOCAB
    return ANSWER_VOCAB


def write_report_csv(reports, path):
    """CSV with one row per protocol: All / Y/N / Num. / Other columns."""
    with open(path, "w") as f:
        f.write("protocol,all,yn,num,other\n")
        for r in reports:
            f.write(",".join([
                r.protocol, f"{r.overall:.6f}",
                f"{r.per_type.get('Y/N', float('nan')):.6f}",
                f"{r.per_type.get('Number', float('nan')):.6f}",
                f"{r.per_type.get('Other', float('nan')):.6f}",
            ]) + "\n")
