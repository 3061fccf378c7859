from fractions import Fraction

import numpy as np
import pytest

from mrn import data as data_mod
from mrn import evaluation
from mrn.evaluation import EvalReport, caption_postprocess, \
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
    probs = np.array([0.1, 0.5, 0.4])
    masked = multiple_choice_mask(probs, [0, 1, 2])
    assert np.array_equal(masked, probs)


def test_mask_single_candidate_wins():
    probs = np.array([0.9, 0.05, 0.05])
    masked = multiple_choice_mask(probs, [2])
    assert int(np.argmax(masked)) == 2


def test_mask_hand_case():
    probs = np.array([0.5, 0.3, 0.2])
    masked = multiple_choice_mask(probs, [1, 2])
    assert int(np.argmax(masked)) == 1


def test_mask_prediction_in_candidates_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        probs = rng.random(12)
        cands = rng.choice(12, size=rng.integers(1, 12), replace=False)
        masked = multiple_choice_mask(probs, list(cands))
        assert int(np.argmax(masked)) in set(int(c) for c in cands)


def test_mask_empty_candidates():
    with pytest.raises(ValueError):
        multiple_choice_mask(np.ones(3), [])


def test_mask_bad_candidate_id():
    with pytest.raises(IndexError):
        multiple_choice_mask(np.ones(3), [5])


# ---------------------------------------------------------------------------
# caption postprocessing

VOCAB = ["yes", "no", "2", "red", "cat"]


def test_caption_empty_no_change():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(caption_postprocess(x, "", VOCAB), x)


def test_caption_never_bumps_yes_no_or_numbers():
    x = np.zeros(5)
    out = caption_postprocess(x, "yes no 2 red cat", VOCAB)
    assert out.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]


def test_caption_bumps_matching_other_answer():
    x = np.zeros(5)
    out = caption_postprocess(x, "a red thing", VOCAB)
    assert out[3] == 1.0 and out[4] == 0.0


def test_caption_token_not_substring_match():
    x = np.zeros(5)
    out = caption_postprocess(x, "infrared catalog", VOCAB)
    assert np.array_equal(out, x)


def test_caption_property_random():
    rng = np.random.default_rng(1)
    words = ["red", "cat", "dog", "yes", "7", "blue"]
    for _ in range(100):
        caption = " ".join(rng.choice(words, size=rng.integers(0, 6)))
        x = rng.standard_normal(5)
        out = caption_postprocess(x, caption, VOCAB)
        toks = set(caption.split())
        for i, ans in enumerate(VOCAB):
            if classify_answer_type(ans) != "Other":
                assert out[i] == x[i]
            else:
                assert out[i] == x[i] + (1.0 if ans in toks else 0.0)


# ---------------------------------------------------------------------------
# report aggregation

def test_aggregation_weighted_mean_exact():
    scores = {"Y/N": [1.0, 0.0], "Number": [1 / 3], "Other": [2 / 3, 1.0, 0.0]}
    report = EvalReport.aggregate("oe", scores)
    expect = (Fraction(3, 3) + Fraction(1, 3) + Fraction(2, 3)
              + Fraction(3, 3)) / 6
    assert report.overall == pytest.approx(float(expect), abs=1e-15)
    assert report.counts == {"Y/N": 2, "Number": 1, "Other": 3}
    weighted = sum(report.per_type[t] * report.counts[t]
                   for t in report.per_type) / 6
    assert report.overall == pytest.approx(weighted, abs=1e-12)


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
            pred = predict(model, e, proto, vocab=vocab)
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

    report = evaluate(ConstModel(), toy_ds.examples, "oe", vocab=vocab)
    expect = np.mean([vqa_accuracy("yes", e.humans) for e in toy_ds.examples])
    assert report.overall == pytest.approx(expect, abs=1e-12)


def test_mc_requires_candidates(toy_ds):
    e = toy_ds.examples[0]
    saved = e.candidates
    e.candidates = []
    try:
        with pytest.raises(ValueError):
            predict(OracleModel([e], toy_ds.answer_vocab), e, "mc",
                    vocab=toy_ds.answer_vocab)
    finally:
        e.candidates = saved


def test_unknown_protocol(toy_ds):
    with pytest.raises(ValueError):
        evaluate(OracleModel([], []), toy_ds.examples, "open-ended")


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
        oe = evaluate(RandomModel(seed), toy_ds.examples, "oe", vocab=vocab)
        mc = evaluate(RandomModel(seed), toy_ds.examples, "mc", vocab=vocab)
        assert mc.overall >= oe.overall


@pytest.mark.parametrize("protocol", ["oe", "mc"])
@pytest.mark.parametrize("postprocess", [False, True])
def test_batched_evaluate_matches_one_row_predict(protocol, postprocess,
                                                  monkeypatch):
    from mrn.encoders import CnnConfig
    from mrn.model import ModelDims
    from mrn.training import TrainConfig, train
    from mrn.vqa import VqaModel
    ds = data_mod.generate(2, 90)
    vocab = ds.answer_vocab
    dims = ModelDims(d_q=8, d_v=8, d_joint=8, n_answers=len(vocab),
                     n_blocks=2)
    model = VqaModel(vocab_size=len(ds.question_vocab), d_emb=4, dims=dims,
                     cnn_config=CnnConfig(channels1=2, channels2=2, d_out=8))
    train(model, ds.split("train"), TrainConfig(
        batch_size=8, iterations=40, learning_rate=3e-3, seed=2))
    examples = ds.split("val") + ds.split("test")
    assert len(examples) % evaluation.EVAL_BATCH != 0

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
    assert max(sizes) == evaluation.EVAL_BATCH and sum(sizes) == len(examples)
    ids = [i for _, chunk_ids in batched for i in chunk_ids]
    one_row = [predict(model, e, protocol, postprocess, vocab)
               for e in examples]
    assert ids == one_row
    expect = Fraction(sum(round(3 * vqa_accuracy(vocab[i], e.humans))
                          for i, e in zip(one_row, examples)),
                      3 * len(examples))
    assert report.overall == float(expect)
