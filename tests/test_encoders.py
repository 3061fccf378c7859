import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrn import autodiff as ad
from mrn import encoders
from mrn.autodiff import Tensor
from mrn.encoders import GATE_PARAMS, CnnConfig, GruEncoder, QuestionBatch, \
    StepCounter, ToyCnn, cnn_forward, gru_forward, gru_forward_trimzero
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


def test_batch_error_names_first_bad_row():
    tokens = np.array([[1, 2, 0], [3, 0, 4], [5, 6, 7]])
    with pytest.raises(ValueError, match="^row 1: non-pad token"):
        QuestionBatch(tokens, np.array([2, 1, 1]))


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


def composed_step(enc, x, h):
    """The GRU step written as separate autodiff ops: the reference."""
    p = enc.params
    zg = ad.sigmoid(ad.add(ad.linear(x, p["w_z"], p["b_z"]),
                           ad.matmul(h, p["u_z"])))
    rg = ad.sigmoid(ad.add(ad.linear(x, p["w_r"], p["b_r"]),
                           ad.matmul(h, p["u_r"])))
    n = ad.tanh(ad.add(ad.linear(x, p["w_n"], p["b_n"]),
                       ad.matmul(ad.mul(rg, h), p["u_n"])))
    one = Tensor(np.ones(zg.shape))
    return ad.add(ad.mul(zg, h), ad.mul(ad.sub(one, zg), n))


def trimzero_step_loss(step, enc, x, h, weights):
    """Weighted sum of h after one step of its first len(x) rows, as
    gru_forward_trimzero steps the active prefix and carries the rest."""
    n_active = x.shape[0]
    h_new = step(enc, x, ad.take_rows(h, slice(0, n_active)))
    h_next = ad.concat_rows([h_new, ad.take_rows(h, slice(n_active,
                                                          h.shape[0]))])
    return ad.tsum(ad.mul(h_next, Tensor(weights)))


def step_inputs(enc, seed, bsz=5, n_active=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_active, enc.d_emb)),
            rng.standard_normal((bsz, enc.d_hidden)),
            rng.standard_normal((bsz, enc.d_hidden)))


def test_step_matches_composed_ops():
    enc = make_encoder(seed=10)
    x0, h0, w0 = step_inputs(enc, 11)
    grads = []
    for step in (GruEncoder.step, composed_step):
        x = Tensor(x0, requires_grad=True)
        h = Tensor(h0, requires_grad=True)
        for t in enc.params.values():
            t.zero_grad()
        loss = trimzero_step_loss(step, enc, x, h, w0)
        loss.backward()
        grads.append((step(enc, x, ad.take_rows(h, slice(0, 3))).data,
                      x.grad, h.grad,
                      [enc.params[k].grad for k in GATE_PARAMS]))
    (y, gx, gh, gp), (y_ref, gx_ref, gh_ref, gp_ref) = grads
    assert np.array_equal(y, y_ref)   # same ops in the same order
    assert np.max(np.abs(gx - gx_ref)) < 1e-12
    assert np.max(np.abs(gh - gh_ref)) < 1e-12
    for g, g_ref in zip(gp, gp_ref):
        assert np.max(np.abs(g - g_ref)) < 1e-12


def test_step_gradients_match_finite_differences():
    enc = make_encoder(seed=12)
    x0, h0, w0 = step_inputs(enc, 13)

    def loss(x, h):
        return trimzero_step_loss(GruEncoder.step, enc, x, h, w0)

    assert check_tensor_grad(lambda t: loss(t, Tensor(h0)), x0) < 1e-6
    assert check_tensor_grad(lambda t: loss(Tensor(x0), t), h0) < 1e-6
    for name in GATE_PARAMS:
        param = enc.params[name]

        def with_param(t):
            enc.params[name] = t
            return loss(Tensor(x0), Tensor(h0))
        try:
            err = check_tensor_grad(with_param, param.data)
        finally:
            enc.params[name] = param
        assert err < 1e-6, name


@settings(max_examples=25, deadline=None, database=None)
@given(n_active=st.integers(1, 3), carried=st.integers(0, 2),
       d_emb=st.integers(1, 4), d_hidden=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_step_gradients_match_finite_differences_on_random_shapes(
        n_active, carried, d_emb, d_hidden, seed):
    enc = GruEncoder(VOCAB, d_emb, d_hidden)
    init_params(enc.params, 0.5, seed)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n_active, d_emb))
    h0 = rng.standard_normal((n_active + carried, d_hidden))
    # at this loss scale the finite differences' rounding stays far below
    # the tolerance on near-zero entries, where rel_err divides by 1e-6
    w0 = rng.standard_normal(h0.shape) * 0.1

    def loss(x, h):
        return trimzero_step_loss(GruEncoder.step, enc, x, h, w0)

    assert check_tensor_grad(lambda t: loss(t, Tensor(h0)), x0) < 1e-4
    assert check_tensor_grad(lambda t: loss(Tensor(x0), t), h0) < 1e-4
    for name in GATE_PARAMS:
        param = enc.params[name]

        def with_param(t):
            enc.params[name] = t
            return loss(Tensor(x0), Tensor(h0))
        try:
            err = check_tensor_grad(with_param, param.data)
        finally:
            enc.params[name] = param
        assert err < 1e-4, name


def test_step_skips_frozen_parameter_gradients():
    enc = make_encoder(seed=14)
    x0, h0, w0 = step_inputs(enc, 15)
    grads = []
    for freeze in (False, True):
        if freeze:
            enc.params = {k: t.detach() for k, t in enc.params.items()}
        x = Tensor(x0, requires_grad=True)
        h = Tensor(h0, requires_grad=True)
        trimzero_step_loss(GruEncoder.step, enc, x, h, w0).backward()
        grads.append((x.grad, h.grad))
    assert all(enc.params[k].grad is None for k in GATE_PARAMS)
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


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
    a = cnn_forward(img[None], cnn).data
    b = cnn_forward(shifted[None], cnn).data
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


def graph_nodes(root):
    """Tensors reachable from root through their parents, root included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_frozen_cnn_on_plain_images_keeps_no_graph():
    # 19 images run as 8 + 8 + 3 through take_rows; no node needs a
    # gradient, so the features hold no parents and no closure
    cnn = ToyCnn()
    init_params(cnn.params, 0.08, 6)
    images = np.random.default_rng(7).uniform(0, 1, (19, 3, 32, 32))
    v = cnn_forward(images, cnn, freeze=True)
    assert v.shape == (19, cnn.config.d_out) and not v.requires_grad
    assert v._parents == () and v._backward is None


def test_trainable_cnn_graph_holds_only_maps_it_needs():
    # a pinned-shape batch of 32 with trainable weights: each conv stage
    # keeps its tanh map and its pooled output, not the padded input or the
    # pre-tanh map (9.7 MB when conv, tanh and pool were separate nodes)
    cnn = ToyCnn()
    init_params(cnn.params, 0.08, 6)
    c = cnn.config
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        images = np.random.default_rng(7).uniform(0, 1, (32, 3, 32, 32))
        v = cnn_forward(images, cnn)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert v.requires_grad
    side = c.image_size
    run = encoders.CNN_RUN
    per_run = run * (c.channels1 * (side**2 + (side // 2)**2)
                     + c.channels2 * ((side // 2)**2 + (side // 4)**2))
    floats = (images.size + 32 // run * per_run + 32 * c.flat_size
              + 2 * 32 * c.d_out)   # fc: the product and its biased sum
    # plus the tensors and closures themselves
    assert held <= 8 * floats + 32 * 2**10


def test_cnn_runs_match_one_pass(monkeypatch):
    # 19 images run as 8 + 8 + 3; a CNN_RUN of 19 runs them as one pass
    cnn = ToyCnn()
    init_params(cnn.params, 0.08, 6)
    rng = np.random.default_rng(7)
    images = rng.uniform(0, 1, (19, 3, 32, 32))
    weights = rng.standard_normal((19, cnn.config.d_out))

    def forward_backward(n):
        for t in cnn.params.values():
            t.zero_grad()
        image = Tensor(images[:n], requires_grad=True)
        v = cnn_forward(image, cnn)
        nodes = graph_nodes(v)
        ad.tsum(ad.mul(v, Tensor(weights[:n]))).backward()
        grads = {k: t.grad for k, t in cnn.params.items()}
        return v.data, image.grad, grads, nodes

    runs, small_runs = forward_backward(19), forward_backward(8)
    monkeypatch.setattr(encoders, "CNN_RUN", 19)
    one, small_one = forward_backward(19), forward_backward(8)
    assert np.array_equal(runs[0], one[0])
    assert np.array_equal(runs[1], one[1])
    for k in ("fc_w", "fc_b"):
        assert np.array_equal(runs[2][k], one[2][k])
    # each run sums its own examples' share of a conv gradient, so the
    # conv weights and biases differ from one 19-example sum in the last bits
    for k in ("conv1_w", "conv1_b", "conv2_w", "conv2_b"):
        a, b = runs[2][k], one[2][k]
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
    # a call of at most CNN_RUN images is one run: the same graph and bits
    assert small_runs[3] == small_one[3]
    assert np.array_equal(small_runs[0], small_one[0])
    assert np.array_equal(small_runs[1], small_one[1])
    assert all(np.array_equal(small_runs[2][k], small_one[2][k])
               for k in cnn.params)
