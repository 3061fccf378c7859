from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrn import data as data_mod
from mrn import evaluation
from mrn.encoders import QuestionBatch
from mrn.evaluation import ANSWER_TYPES, EvalReport, caption_postprocess, \
    classify_answer_type, evaluate, multiple_choice_mask, predict, \
    vqa_accuracy


def humans_with_k_matches(k, answer="cat", filler="dog"):
    return [answer] * k + [filler] * (10 - k)


# ---------------------------------------------------------------------------
# vqa_accuracy

def test_accuracy_three_matches_is_one():
    assert vqa_accuracy("cat", humans_with_k_matches(3)) == 1.0


def test_accuracy_zero_matches():
    assert vqa_accuracy("cat", humans_with_k_matches(0)) == 0.0


def test_accuracy_two_matches_two_thirds():
    assert vqa_accuracy("cat", humans_with_k_matches(2)) == pytest.approx(2 / 3)


@pytest.mark.parametrize("k", range(11))
def test_accuracy_formula_all_k(k):
    assert vqa_accuracy("cat", humans_with_k_matches(k)) == min(k / 3, 1.0)


def test_accuracy_wrong_human_count():
    with pytest.raises(ValueError):
        vqa_accuracy("cat", ["cat"] * 9)


def test_accuracy_normalizes_case_and_space():
    assert vqa_accuracy(" CAT ", humans_with_k_matches(3)) == 1.0


# ---------------------------------------------------------------------------
# answer types

@pytest.mark.parametrize("answer,expected", [
    ("yes", "Y/N"), ("No", "Y/N"), ("3", "Number"), ("0", "Number"),
    ("red", "Other"), ("circle", "Other"),
])
def test_classify_answer_type(answer, expected):
    assert classify_answer_type(answer) == expected


# ---------------------------------------------------------------------------
# multiple choice masking

def test_mask_full_vocabulary_is_identity_on_argmax():
    probs = np.array([[0.1, 0.5, 0.4]])
    masked = multiple_choice_mask(probs, [[0, 1, 2]])
    assert np.array_equal(masked, probs)


def test_mask_single_candidate_wins():
    probs = np.array([[0.9, 0.05, 0.05]])
    masked = multiple_choice_mask(probs, [[2]])
    assert int(np.argmax(masked[0])) == 2


def test_mask_hand_case():
    probs = np.array([[0.5, 0.3, 0.2]])
    masked = multiple_choice_mask(probs, [[1, 2]])
    assert int(np.argmax(masked[0])) == 1


def test_mask_prediction_in_candidates_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = rng.random((1, 12))
        cands = rng.choice(12, size=rng.integers(1, 12), replace=False)
        masked = multiple_choice_mask(probs, [list(cands)])
        assert int(np.argmax(masked[0])) in set(int(c) for c in cands)


def test_mask_empty_candidates():
    with pytest.raises(ValueError):
        multiple_choice_mask(np.ones((1, 3)), [[]])


def test_mask_bad_candidate_id():
    with pytest.raises(IndexError):
        multiple_choice_mask(np.ones((1, 3)), [[5]])


# ---------------------------------------------------------------------------
# caption postprocessing

VOCAB = ["yes", "no", "2", "red", "cat"]


def test_caption_empty_no_change():
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    assert np.array_equal(caption_postprocess(x, [""], VOCAB), x)


def test_caption_never_bumps_yes_no_or_numbers():
    x = np.zeros((1, 5))
    out = caption_postprocess(x, ["yes no 2 red cat"], VOCAB)
    assert out.tolist() == [[0.0, 0.0, 0.0, 1.0, 1.0]]


def test_caption_bumps_matching_other_answer():
    x = np.zeros((1, 5))
    out = caption_postprocess(x, ["a red thing"], VOCAB)[0]
    assert out[3] == 1.0 and out[4] == 0.0


def test_caption_token_not_substring_match():
    x = np.zeros((1, 5))
    out = caption_postprocess(x, ["infrared catalog"], VOCAB)
    assert np.array_equal(out, x)


def test_caption_property_random():
    rng = np.random.default_rng(1)
    words = ["red", "cat", "dog", "yes", "7", "blue"]
    for _ in range(100):
        caption = " ".join(rng.choice(words, size=rng.integers(0, 6)))
        x = rng.standard_normal(5)
        out = caption_postprocess(x[None], [caption], VOCAB)[0]
        toks = set(caption.split())
        for i, ans in enumerate(VOCAB):
            if classify_answer_type(ans) != "Other":
                assert out[i] == x[i]
            else:
                assert out[i] == x[i] + (1.0 if ans in toks else 0.0)


# ---------------------------------------------------------------------------
# report aggregation

def test_aggregation_weighted_mean_exact():
    thirds = {"Y/N": [3, 0], "Number": [1], "Other": [2, 3, 0]}
    report = EvalReport.aggregate("oe", thirds)
    expect = (Fraction(3, 3) + Fraction(1, 3) + Fraction(2, 3)
              + Fraction(3, 3)) / 6
    assert report.overall == pytest.approx(float(expect), abs=1e-15)
    assert report.counts == {"Y/N": 2, "Number": 1, "Other": 3}
    weighted = sum(report.per_type[t] * report.counts[t]
                   for t in report.per_type) / 6
    assert report.overall == pytest.approx(weighted, abs=1e-12)


def _fraction_aggregate(scores_by_type):
    """The float-score aggregation that thirds replaced, kept as an oracle."""
    per_type, total, n = {}, Fraction(0), 0
    for t in ANSWER_TYPES:
        scores = scores_by_type.get(t, [])
        if scores:
            s = sum(Fraction(x).limit_denominator(3) for x in scores)
            per_type[t] = float(s / len(scores))
            total += s
            n += len(scores)
    return per_type, float(total / n) if n else None


@settings(max_examples=200, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(ANSWER_TYPES),
                       st.lists(st.integers(0, 10), max_size=300)))
def test_thirds_aggregation_equals_fraction_aggregation(matches):
    humans = {t: [humans_with_k_matches(k) for k in ks]
              for t, ks in matches.items()}
    scores = {t: [vqa_accuracy("cat", h) for h in hs]
              for t, hs in humans.items()}
    thirds = {t: [round(3 * x) for x in xs] for t, xs in scores.items()}
    report = EvalReport.aggregate("oe", thirds)
    per_type, overall = _fraction_aggregate(scores)
    assert report.per_type == per_type
    assert report.overall == overall
    assert report.counts == {t: len(thirds.get(t, [])) for t in ANSWER_TYPES}


# ---------------------------------------------------------------------------
# end-to-end protocol checks on a tiny model

class OracleModel:
    """Always predicts the stored ground truth."""

    def __init__(self, examples, vocab):
        self.lookup = {id(e): e.answer_id for e in examples}
        self.n = len(vocab)
        self.current = None

    def predict_logits(self, images, batch):
        logits = np.zeros((1, self.n))
        logits[0, self.current] = 10.0
        return logits


@pytest.fixture(scope="module")
def toy_ds():
    return data_mod.generate(11, 80)


def test_perfect_oracle_scores_high(toy_ds):
    # toy humans are 9/10 unanimous, so the oracle scores 1.0 everywhere
    vocab = toy_ds.answer_vocab
    model = OracleModel(toy_ds.examples, vocab)
    scores = []
    for proto in ("oe", "mc"):
        total = []
        for e in toy_ds.examples:
            model.current = e.answer_id
            pred = predict(model, e, proto, False, vocab)
            total.append(vqa_accuracy(vocab[pred], e.humans))
        scores.append(np.mean(total))
    assert scores[0] == 1.0 and scores[1] == 1.0


def test_constant_predictor_matches_base_rate(toy_ds):
    vocab = toy_ds.answer_vocab
    const_id = vocab.index("yes")

    class ConstModel:
        def predict_logits(self, images, batch):
            logits = np.zeros((len(batch.lengths), len(vocab)))
            logits[:, const_id] = 10.0
            return logits

    report = evaluate(ConstModel(), toy_ds.examples, "oe", False, vocab)
    expect = np.mean([vqa_accuracy("yes", e.humans) for e in toy_ds.examples])
    assert report.overall == pytest.approx(expect, abs=1e-12)


def test_mc_requires_candidates(toy_ds):
    e = toy_ds.examples[0]
    saved = e.candidates
    e.candidates = []
    try:
        with pytest.raises(ValueError):
            predict(OracleModel([e], toy_ds.answer_vocab), e, "mc", False,
                    toy_ds.answer_vocab)
    finally:
        e.candidates = saved


def test_unknown_protocol(toy_ds):
    with pytest.raises(ValueError):
        evaluate(OracleModel([], []), toy_ds.examples, "open-ended", False,
                 toy_ds.answer_vocab)


def test_mc_prediction_is_best_candidate_when_others_underflow(toy_ds):
    # a finite logit far above every candidate's: softmax underflows each
    # candidate's probability to 0.0, yet the prediction stays a candidate
    from mrn.encoders import CnnConfig
    from mrn.model import ModelDims
    from mrn.training import init_params
    from mrn.vqa import VqaModel
    vocab = toy_ds.answer_vocab
    model = VqaModel(vocab_size=len(toy_ds.question_vocab), d_emb=4,
                     dims=ModelDims(d_q=8, d_v=8, d_joint=8,
                                    n_answers=len(vocab), n_blocks=1),
                     cnn_config=CnnConfig(channels1=2, channels2=2, d_out=8))
    init_params(model.named_parameters(), 0.08, 0)
    model.mrn.params["cls_b"].data[0] = 1000.0
    examples = [e for e in toy_ds.examples if 0 not in e.candidates]
    assert examples
    preds = evaluation.predict_batch(model, examples, "mc", False, vocab)
    for e, pred in zip(examples, preds):
        logits = model.predict_logits(e.image[None], QuestionBatch.pad(
            [e.question]))[0]
        best = max(e.candidates, key=lambda i: logits[i])
        assert pred == best


def test_mc_at_least_oe_for_random_models(toy_ds):
    # candidates always contain ground truth and every wrong human answer,
    # so a non-candidate prediction scores exactly 0 and masking can only help
    vocab = toy_ds.answer_vocab

    class RandomModel:
        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)

        def predict_logits(self, images, batch):
            return self.rng.standard_normal((len(batch.lengths), len(vocab)))

    for seed in range(10):
        oe = evaluate(RandomModel(seed), toy_ds.examples, "oe", False, vocab)
        mc = evaluate(RandomModel(seed), toy_ds.examples, "mc", False, vocab)
        assert mc.overall >= oe.overall


# ---------------------------------------------------------------------------
# batched scoring against a one-row reference, on given logits

SCORE_VOCAB = ["yes", "no", "2", "7", "red", "cat", "blue", "circle"]
SCORE_OTHER = {"red", "cat", "blue", "circle"}


class LogitsModel:
    """Returns the given logits rows, whatever the images and questions."""

    def __init__(self, logits):
        self.logits = logits

    def predict_logits(self, images, batch):
        assert len(images) == len(batch.lengths) == len(self.logits)
        return np.array(self.logits, dtype=np.float64)


def scored_example(caption, candidates, humans=None):
    return SimpleNamespace(question=[1, 2], image=None, caption=caption,
                           candidates=candidates, humans=humans,
                           answer_type="Other")


def one_row_prediction(row, caption, candidates, protocol, postprocess):
    """Caption bump, candidate mask and first-max argmax, in plain Python."""
    tokens = caption.lower().split()
    scores = [x + 1.0 if postprocess and a in SCORE_OTHER and a in tokens
              else x for x, a in zip(row, SCORE_VOCAB)]
    ids = sorted(set(candidates)) if protocol == "mc" else \
        range(len(SCORE_VOCAB))
    best = max(scores[i] for i in ids)
    return next(i for i in ids if scores[i] == best)


_logit = st.one_of(st.integers(-2, 2).map(float),       # ties, also after +1
                   st.floats(-4, 4, allow_nan=False))
_row = st.lists(_logit, min_size=len(SCORE_VOCAB), max_size=len(SCORE_VOCAB))
_caption = st.lists(st.sampled_from(["a", "and", "red", "Cat", "blue",
                                     "circle", "yes", "2", "dog"]),
                    max_size=5).map(" ".join)
_candidates = st.lists(st.integers(0, len(SCORE_VOCAB) - 1), min_size=1,
                       max_size=6)                      # single, duplicates


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(_row, _caption, _candidates), min_size=1,
                max_size=12),
       st.sampled_from(["oe", "mc"]), st.booleans())
def test_predict_batch_equals_one_row_composition(rows, protocol,
                                                  postprocess):
    logits = [row for row, _, _ in rows]
    examples = [scored_example(caption, cands) for _, caption, cands in rows]
    preds = evaluation.predict_batch(LogitsModel(logits), examples, protocol,
                                     postprocess, SCORE_VOCAB)
    assert preds == [one_row_prediction(row, caption, cands, protocol,
                                        postprocess)
                     for row, caption, cands in rows]
    assert all(type(p) is int for p in preds)


def test_predict_batch_of_no_examples_is_empty():
    class NoForward:
        def predict_logits(self, images, batch):
            raise AssertionError("no forward for no examples")

    assert evaluation.predict_batch(NoForward(), [], "mc", True,
                                    SCORE_VOCAB) == []
    assert evaluate(NoForward(), [], "mc", True, SCORE_VOCAB).overall is None


def test_mc_earliest_bad_row_raises():
    logits = np.zeros((3, len(SCORE_VOCAB)))
    out_of_range = scored_example("", [1, len(SCORE_VOCAB)])
    with pytest.raises(IndexError):
        evaluation.predict_batch(
            LogitsModel(logits),
            [scored_example("", [0]), out_of_range, scored_example("", [])],
            "mc", False, SCORE_VOCAB)
    with pytest.raises(ValueError, match="needs candidate lists"):
        evaluation.predict_batch(
            LogitsModel(logits),
            [scored_example("", [0]), scored_example("", []), out_of_range],
            "mc", False, SCORE_VOCAB)
    with pytest.raises(IndexError):
        multiple_choice_mask(logits, [[0], [-1], []])
    with pytest.raises(ValueError, match="empty candidate set"):
        multiple_choice_mask(logits, [[0], [], [-1]])
    # one candidate set or caption per row, no fewer
    with pytest.raises(ValueError, match="3 score rows but 2"):
        multiple_choice_mask(logits, [[0], [1]])
    with pytest.raises(ValueError, match="3 score rows but 2"):
        caption_postprocess(logits, ["a cat", "red"], SCORE_VOCAB)


def test_evaluate_follows_in_place_edits_of_humans_and_caption():
    # zero logits: with no bump the first answer ("yes") wins
    e = scored_example("a cat", list(range(len(SCORE_VOCAB))),
                       humans=["dog"] * 10)
    model = LogitsModel(np.zeros((1, len(SCORE_VOCAB))))

    def overall():
        return evaluate(model, [e], "oe", True, SCORE_VOCAB).overall

    assert overall() == 0.0                     # predicts "cat"
    e.humans[:2] = ["cat", " CAT "]
    assert overall() == 2 / 3
    e.humans[2] = "cat"
    assert overall() == 1.0
    e.caption = "a red cat"                     # "red" comes first on the tie
    assert overall() == 0.0
    e.humans[9] = "red"
    assert overall() == 1 / 3
    e.humans.pop()
    with pytest.raises(ValueError, match="got 9"):
        overall()


@pytest.fixture(scope="module")
def trained():
    """A small model trained on generate(2, 90), and that dataset."""
    from mrn.encoders import CnnConfig
    from mrn.model import ModelDims
    from mrn.training import TrainConfig, train
    from mrn.vqa import VqaModel
    ds = data_mod.generate(2, 90)
    dims = ModelDims(d_q=8, d_v=8, d_joint=8, n_answers=len(ds.answer_vocab),
                     n_blocks=2)
    model = VqaModel(vocab_size=len(ds.question_vocab), d_emb=4, dims=dims,
                     cnn_config=CnnConfig(channels1=2, channels2=2, d_out=8))
    train(model, ds.split("train"), TrainConfig(
        batch_size=8, iterations=40, learning_rate=3e-3, seed=2))
    return model, ds


@pytest.mark.parametrize("protocol", ["oe", "mc"])
@pytest.mark.parametrize("postprocess", [False, True])
def test_batched_evaluate_matches_one_row_predict(protocol, postprocess,
                                                  monkeypatch, trained):
    model, ds = trained
    vocab = ds.answer_vocab
    # every example: 90 = 64 + 26 crosses a batch boundary, and is not a
    # multiple of the CNN's slice of 8 images
    examples = ds.examples
    assert len(examples) > evaluation.EVAL_BATCH
    assert len(examples) % 8 != 0

    batched = []
    real = evaluation.predict_batch

    def spy(model, chunk, *args):
        ids = real(model, chunk, *args)
        batched.append((len(chunk), ids))
        return ids

    monkeypatch.setattr(evaluation, "predict_batch", spy)
    report = evaluate(model, examples, protocol, postprocess, vocab)
    monkeypatch.undo()
    sizes = [n for n, _ in batched]
    assert sizes == [evaluation.EVAL_BATCH,
                     len(examples) - evaluation.EVAL_BATCH]
    ids = [i for _, chunk_ids in batched for i in chunk_ids]
    one_row = [predict(model, e, protocol, postprocess, vocab)
               for e in examples]
    assert ids == one_row
    expect = Fraction(sum(round(3 * vqa_accuracy(vocab[i], e.humans))
                          for i, e in zip(one_row, examples)),
                      3 * len(examples))
    assert report.overall == float(expect)


@pytest.mark.parametrize("n", [1, 8, 26, 50, 64])
def test_one_fusion_forward_over_cnn_slices_of_8(n, monkeypatch, trained,
                                                 tmp_path):
    from mrn import encoders
    from mrn.vqa import VqaModel, load_checkpoint, save_checkpoint
    model, ds = trained
    # a fresh copy: its feature store starts empty
    save_checkpoint(model, str(tmp_path / "m.ckpt"))
    model = load_checkpoint(str(tmp_path / "m.ckpt"))
    cnn_calls, forwards = [], []
    real_cnn, real_forward = encoders.cnn_forward, VqaModel.forward

    def cnn_spy(image, cnn, freeze=False):
        cnn_calls.append([im.tobytes() for im in image])
        assert freeze
        return real_cnn(image, cnn, freeze)

    def forward_spy(self, v, batch, **kwargs):
        forwards.append(v.shape[0])
        return real_forward(self, v, batch, **kwargs)

    monkeypatch.setattr(encoders, "cnn_forward", cnn_spy)
    monkeypatch.setattr(VqaModel, "forward", forward_spy)
    examples = ds.examples[:n]
    evaluate(model, examples, "mc", True, ds.answer_vocab)
    # the call's images in order, repeats included, 8 per CNN call
    assert [len(c) for c in cnn_calls] == \
        [min(8, n - i) for i in range(0, n, 8)]
    assert sum(cnn_calls, []) == [e.image.tobytes() for e in examples]
    assert forwards == [n]
    # a second evaluate on the same split reads its rows from the store
    evaluate(model, examples, "oe", False, ds.answer_vocab)
    assert len(cnn_calls) == -(-n // 8)
    assert forwards == [n, n]
