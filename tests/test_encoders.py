import numpy as np
import pytest

from mrn import autodiff as ad
from mrn.autodiff import Tensor
from mrn.encoders import CnnConfig, GruEncoder, QuestionBatch, StepCounter, \
    ToyCnn, cnn_forward, gru_forward, gru_forward_trimzero
from mrn.gradcheck import check_tensor_grad
from mrn.training import init_params

VOCAB = 11


def make_encoder(seed=0, d_emb=5, d_hidden=6):
    enc = GruEncoder(VOCAB, d_emb, d_hidden)
    init_params(enc.params, 0.3, seed)
    return enc


def random_batch(rng, bsz=6, maxlen=9):
    lengths = rng.integers(1, maxlen + 1, size=bsz)
    tokens = np.zeros((bsz, maxlen), dtype=np.int64)
    for i, n in enumerate(lengths):
        tokens[i, :n] = rng.integers(1, VOCAB, size=n)
    return QuestionBatch(tokens, lengths)


def test_batch_invariants_enforced():
    with pytest.raises(ValueError):
        QuestionBatch(np.array([[1, 2, 3]]), np.array([0]))   # length < 1
    with pytest.raises(ValueError):
        QuestionBatch(np.array([[1, 2, 3]]), np.array([4]))   # length > maxlen
    with pytest.raises(ValueError):
        QuestionBatch(np.array([[1, 2, 3]]), np.array([2]))   # non-pad tail


def test_pad_right_pads_to_the_longest():
    batch = QuestionBatch.pad([[4, 7, 2], [5], np.array([3, 3])])
    assert batch.tokens.tolist() == [[4, 7, 2], [5, 0, 0], [3, 3, 0]]
    assert batch.lengths.tolist() == [3, 1, 2]


def test_token_id_out_of_range():
    enc = make_encoder()
    batch = QuestionBatch(np.array([[VOCAB, 0]]), np.array([1]))
    with pytest.raises(IndexError):
        gru_forward(batch, enc)


def test_length_one_is_single_step_from_zero():
    enc = make_encoder()
    batch = QuestionBatch(np.array([[3, 0, 0]]), np.array([1]))
    out = gru_forward(batch, enc)
    x = enc.embed(np.array([3]))
    expect = enc.step(x, Tensor(np.zeros((1, enc.d_hidden))))
    assert np.max(np.abs(out.data - expect.data)) == 0.0


def test_padding_invariance():
    enc = make_encoder()
    a = QuestionBatch(np.array([[4, 7, 2, 0]]), np.array([3]))
    b = QuestionBatch(np.array([[4, 7, 2, 0, 0, 0, 0]]), np.array([3]))
    for fwd in (gru_forward, gru_forward_trimzero):
        assert np.max(np.abs(fwd(a, enc).data - fwd(b, enc).data)) == 0.0


def test_batch_rows_equal_single_sequence_forward():
    enc = make_encoder()
    rng = np.random.default_rng(1)
    batch = random_batch(rng)
    out = gru_forward(batch, enc)
    for i in range(batch.tokens.shape[0]):
        n = batch.lengths[i]
        single = QuestionBatch(batch.tokens[i:i + 1, :n], np.array([n]))
        row = gru_forward(single, enc)
        assert np.max(np.abs(out.data[i] - row.data[0])) < 1e-12


def test_trimzero_equal_lengths_same_work():
    enc = make_encoder()
    tokens = np.random.default_rng(2).integers(1, VOCAB, size=(4, 5))
    batch = QuestionBatch(tokens, np.full(4, 5))
    c1, c2 = StepCounter(), StepCounter()
    naive = gru_forward(batch, enc, counter=c1)
    trim = gru_forward_trimzero(batch, enc, counter=c2)
    assert c1.row_steps == c2.row_steps == 20
    assert np.max(np.abs(naive.data - trim.data)) < 1e-12


def test_trimzero_mixed_lengths():
    enc = make_encoder()
    tokens = np.zeros((3, 9), dtype=np.int64)
    lengths = np.array([1, 5, 9])
    rng = np.random.default_rng(3)
    for i, n in enumerate(lengths):
        tokens[i, :n] = rng.integers(1, VOCAB, size=n)
    batch = QuestionBatch(tokens, lengths)
    c1, c2 = StepCounter(), StepCounter()
    naive = gru_forward(batch, enc, counter=c1)
    trim = gru_forward_trimzero(batch, enc, counter=c2)
    assert np.max(np.abs(naive.data - trim.data)) < 1e-12
    assert c2.row_steps == 15 < c1.row_steps == 27


def test_trimzero_equivalence_100_random_batches():
    enc = make_encoder(seed=4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        batch = random_batch(rng)
        c1, c2 = StepCounter(), StepCounter()
        naive = gru_forward(batch, enc, counter=c1)
        trim = gru_forward_trimzero(batch, enc, counter=c2)
        assert np.max(np.abs(naive.data - trim.data)) < 1e-12
        assert c2.row_steps == int(batch.lengths.sum())
        if np.any(batch.lengths < batch.tokens.shape[1]):
            assert c2.row_steps < c1.row_steps


def test_gate_ranges():
    enc = make_encoder(seed=6)
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((8, enc.d_emb)) * 5)
    h = Tensor(rng.standard_normal((8, enc.d_hidden)) * 5)
    p = enc.params
    z = ad.sigmoid(ad.add(ad.linear(x, p["w_z"], p["b_z"]),
                          ad.matmul(h, p["u_z"])))
    n = ad.tanh(ad.linear(x, p["w_n"], p["b_n"]))
    assert np.all((z.data > 0) & (z.data < 1))
    assert np.all((n.data > -1) & (n.data < 1))
    out = enc.step(x, ad.tanh(h))
    assert np.all(np.isfinite(out.data))


def test_gru_gradient_flows_to_embeddings():
    enc = make_encoder(seed=8)
    batch = QuestionBatch(np.array([[2, 5, 0]]), np.array([2]))
    loss = ad.tsum(gru_forward_trimzero(batch, enc))
    loss.backward()
    g = enc.params["emb"].grad
    assert g is not None
    assert np.any(g[2] != 0) and np.any(g[5] != 0)
    assert np.all(g[1] == 0)  # unused token untouched


# ---------------------------------------------------------------------------
# CNN

def tiny_cnn(seed=0):
    cfg = CnnConfig(in_channels=3, image_size=8, channels1=2, channels2=3,
                    d_out=4)
    cnn = ToyCnn(cfg)
    init_params(cnn.params, 0.3, seed)
    return cnn


def test_cnn_output_dim():
    cnn = tiny_cnn()
    out = cnn_forward(np.zeros((2, 3, 8, 8)), cnn)
    assert out.shape == (2, 4)


def test_cnn_zero_image_zero_bias():
    cnn = tiny_cnn()
    for k in ("conv1_b", "conv2_b", "fc_b"):
        cnn.params[k].data[:] = 0.0
    out = cnn_forward(np.zeros((1, 3, 8, 8)), cnn)
    assert np.max(np.abs(out.data)) == 0.0


def test_cnn_not_translation_invariant():
    # documented non-property: shifting content changes the features
    cnn = tiny_cnn(seed=1)
    img = np.zeros((3, 8, 8))
    img[:, 1:4, 1:4] = 1.0
    shifted = np.roll(img, 2, axis=2)
    a = cnn_forward(img, cnn).data
    b = cnn_forward(shifted, cnn).data
    assert np.max(np.abs(a - b)) > 1e-6


def test_cnn_shape_mismatch():
    cnn = tiny_cnn()
    with pytest.raises(ad.ShapeError):
        cnn_forward(np.zeros((1, 3, 9, 9)), cnn)


def test_cnn_pixel_gradient_finite_difference():
    cnn = tiny_cnn(seed=2)
    rng = np.random.default_rng(3)
    err = check_tensor_grad(
        lambda t: ad.tsum(cnn_forward(t, cnn)),
        rng.uniform(0, 1, size=(1, 3, 8, 8)))
    assert err < 1e-4


def test_cnn_freeze_blocks_weight_grads_but_not_pixels():
    cnn = tiny_cnn(seed=4)
    img = Tensor(np.random.default_rng(5).uniform(0, 1, (1, 3, 8, 8)),
                 requires_grad=True)
    ad.tsum(cnn_forward(img, cnn, freeze=True)).backward()
    assert img.grad is not None and np.any(img.grad != 0)
    assert all(t.grad is None for t in cnn.params.values())
