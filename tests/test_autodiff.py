import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrn import autodiff as ad
from mrn.autodiff import Tensor
from mrn.encoders import GATE_PARAMS, GruEncoder, cnn_forward
from mrn.gradcheck import check_tensor_grad, fd_grad, rel_err


def test_matmul_identity():
    out = ad.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[3.0], [4.0]]


def test_matmul_hand_value():
    # [[1,2],[3,4]] x [[5],[6]] = [[17],[39]]
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert out.data.tolist() == [[17.0], [39.0]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_finite_difference():
    rng = np.random.default_rng(0)
    b = Tensor(rng.standard_normal((3, 3)))
    err = check_tensor_grad(lambda t: ad.tsum(ad.matmul(t, b)),
                            rng.standard_normal((3, 3)))
    assert err < 1e-6
    err = check_tensor_grad(lambda t: ad.tsum(ad.matmul(b, t)),
                            rng.standard_normal((3, 3)))
    assert err < 1e-6


def test_mul_annihilator_and_hand():
    z = ad.mul(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))
    assert z.data.tolist() == [0.0, 0.0, 0.0]
    out = ad.mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert out.data.tolist() == [3.0, 8.0]


def test_add_identity():
    x = np.array([1.5, -2.0, 0.25])
    out = ad.add(Tensor(x), Tensor(np.zeros(3)))
    assert out.data.tolist() == x.tolist()


def test_elementwise_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))
    # a 0-d operand does not broadcast either
    with pytest.raises(ad.ShapeError):
        ad.mul(Tensor(2.0), Tensor([1.0, 2.0]))
    with pytest.raises(ad.ShapeError):
        ad.sub(Tensor([0.25, 0.5]), Tensor(1.0))


def test_mul_backward_rule():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    ad.tsum(ad.mul(a, b)).backward()
    assert a.grad.tolist() == [3.0, 4.0]
    assert b.grad.tolist() == [1.0, 2.0]


def test_tanh_zero_and_saturation():
    assert ad.tanh(Tensor(0.0)).item() == 0.0
    big = ad.tanh(Tensor(30.0)).item()
    assert 1.0 - 1e-6 < big <= 1.0


def test_tanh_gradient_finite_difference():
    rng = np.random.default_rng(1)
    for _ in range(10):
        err = check_tensor_grad(lambda t: ad.tsum(ad.tanh(t)),
                                rng.standard_normal(5))
        assert err < 1e-6


def test_softmax_ce_uniform_logits():
    logits = Tensor(np.zeros((2, 4)))
    loss = ad.softmax_cross_entropy(logits, [0, 3])
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_softmax_ce_saturation():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    loss = ad.softmax_cross_entropy(Tensor(logits), [2])
    assert loss.item() < 1e-12


def test_softmax_ce_target_out_of_range():
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])


def test_softmax_ce_gradient_finite_difference():
    rng = np.random.default_rng(2)
    targets = rng.integers(0, 4, size=3)
    err = check_tensor_grad(
        lambda t: ad.softmax_cross_entropy(t, targets),
        rng.standard_normal((3, 4)))
    assert err < 1e-5


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(3).standard_normal((2, 3)),
               requires_grad=True)
    ad.tsum(x).backward()
    assert np.all(x.grad == 1.0)


def test_backward_square_analytic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    ad.tsum(ad.mul(x, x)).backward()
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_requires_scalar():
    x = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.mul(x, x).backward()


def test_fanout_accumulates():
    # y = x*x + x -> dy/dx = 2x + 1
    x = Tensor([2.0], requires_grad=True)
    ad.tsum(ad.add(ad.mul(x, x), x)).backward()
    assert x.grad.tolist() == [5.0]


def test_add_gives_each_parent_its_own_gradient():
    # add hands the same g to both parents; a later contribution to one
    # must not show up in the other
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    ad.tsum(ad.add(ad.add(a, b), a)).backward()
    assert a.grad.tolist() == [2.0, 2.0]
    assert b.grad.tolist() == [1.0, 1.0]
    assert not np.shares_memory(a.grad, b.grad)


def test_second_backward_adds_one_more_gradient():
    # leaves accumulate across backward calls; interior nodes start afresh
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.tsum(ad.mul(ad.reshape(x, (2, 1)), Tensor([[3.0], [4.0]])))
    y.backward()
    y.backward()
    assert x.grad.tolist() == [6.0, 8.0]


def test_backward_leaves_gradients_on_leaves_only():
    from mrn.gradcheck import tiny_batch, tiny_model
    model = tiny_model(seed=2)
    images, batch, targets = tiny_batch(seed=2)
    logits = model.forward(cnn_forward(images, model.cnn), batch)[1]
    loss = ad.softmax_cross_entropy(logits, targets)
    loss.backward()
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    interior = [n for n in nodes.values() if n._parents]
    leaves = [n for n in nodes.values() if not n._parents and n.requires_grad]
    assert len(interior) > 50
    assert all(n.grad is None for n in interior)
    assert all(n.grad is not None for n in leaves)


def test_unreachable_tensor_has_no_grad():
    x = Tensor([1.0], requires_grad=True)
    y = Tensor([1.0], requires_grad=True)
    ad.tsum(ad.mul(x, x)).backward()
    assert y.grad is None


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(4)
    a0 = rng.standard_normal((4, 4))
    b0 = rng.standard_normal((4, 4))

    def run():
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        loss = ad.tsum(ad.tanh(ad.matmul(a, b)))
        loss.backward()
        return loss.item(), a.grad.copy(), b.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1 == l2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


def test_take_rows_and_concat_gradients():
    rng = np.random.default_rng(5)
    idx = np.array([0, 2, 2])

    def build(t):
        picked = ad.take_rows(t, idx)
        rest = ad.take_rows(t, slice(1, 4))
        return ad.tsum(ad.mul(ad.concat_rows([picked, rest]),
                              ad.concat_rows([picked, rest])))

    err = check_tensor_grad(build, rng.standard_normal((4, 3)))
    assert err < 1e-6


def test_reductions_and_reshape_gradients():
    rng = np.random.default_rng(6)
    r = Tensor(rng.standard_normal(6))
    err = check_tensor_grad(
        lambda t: ad.tsum(ad.mul(ad.reshape(t, (6,)), r)),
        rng.standard_normal((2, 3)))
    assert err < 1e-6


def test_add_bias_gradient():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((3, 4)))
    err = check_tensor_grad(lambda t: ad.tsum(ad.add_bias(x, t)),
                            rng.standard_normal(4))
    assert err < 1e-6


def test_conv2d_gradient_finite_difference():
    rng = np.random.default_rng(8)
    w = Tensor(rng.standard_normal((2, 1, 3, 3)) * 0.5)
    b = Tensor(rng.standard_normal(2) * 0.5)
    x0 = rng.standard_normal((1, 1, 5, 5))
    err = check_tensor_grad(
        lambda t: ad.tsum(ad.tanh(ad.conv2d(t, w, b, padding=1))), x0)
    assert err < 1e-4
    x = Tensor(x0)
    err = check_tensor_grad(
        lambda t: ad.tsum(ad.tanh(ad.conv2d(x, t, b, padding=1))),
        w.data.copy())
    assert err < 1e-4


CONV_OPS = [ad.conv2d, ad.conv_tanh_pool]


@pytest.mark.parametrize("op", CONV_OPS)
def test_conv_rejects_bias_not_one_per_output_channel(op):
    x, w, b = Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), \
        Tensor(np.zeros(2))
    with pytest.raises(ad.ShapeError, match=r"\(1, 1, 3, 3\).*\(2,\)"):
        op(x, w, b, 1)


@pytest.mark.parametrize("op", CONV_OPS)
def test_conv_rejects_negative_padding(op):
    x, w, b = Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), \
        Tensor(np.zeros(1))
    with pytest.raises(ad.ShapeError,
                       match=r"\(1, 1, 4, 4\).*\(1, 1, 3, 3\).*-1"):
        op(x, w, b, -1)


@pytest.mark.parametrize("op", CONV_OPS)
def test_conv_rejects_kernel_larger_than_padded_input(op):
    x, w, b = Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), \
        Tensor(np.zeros(1))
    with pytest.raises(ad.ShapeError,
                       match=r"\(1, 1, 2, 2\).*\(1, 1, 5, 5\)"):
        op(x, w, b, 0)
    # a kernel as tall as the padded input gives one output row
    assert ad.conv2d(Tensor(np.zeros((1, 1, 1, 3))), w, b, 2).shape == \
        (1, 1, 1, 3)


def test_avgpool_gradient():
    rng = np.random.default_rng(9)
    err = check_tensor_grad(
        lambda t: ad.tsum(ad.mul(ad.avgpool2d(t, 2), ad.avgpool2d(t, 2))),
        rng.standard_normal((1, 2, 4, 4)))
    assert err < 1e-6


def test_forward_replay_bit_identical():
    rng = np.random.default_rng(10)
    a0 = rng.standard_normal((3, 3))

    def run():
        return ad.tanh(ad.matmul(Tensor(a0.copy()), Tensor(a0.copy()))).data

    assert np.array_equal(run(), run())


def test_detach_cuts_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x).detach()
    assert not y.requires_grad
    loss = ad.tsum(ad.mul(y, y))
    assert not loss.requires_grad


def test_model_step_leaves_no_reference_cycles():
    # every closure captures parents and arrays, never its own output node,
    # so reference counting frees a whole graph without the cyclic collector
    import gc

    from mrn.gradcheck import tiny_batch, tiny_model
    model = tiny_model(seed=1)
    images, batch, targets = tiny_batch(seed=1)
    gc.collect()
    gc.disable()
    try:
        logits = model.forward(cnn_forward(images, model.cnn), batch)[1]
        ad.softmax_cross_entropy(logits, targets).backward()
        del logits
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0


@settings(max_examples=25, deadline=None, database=None)
@given(bsz=st.integers(1, 2), c=st.integers(1, 3), o=st.integers(1, 3),
       h=st.integers(2, 5), w=st.integers(2, 5), padding=st.sampled_from([0, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_conv2d_gradients_match_finite_differences(bsz, c, o, h, w, padding,
                                                   seed):
    rng = np.random.default_rng(seed)
    args = [rng.standard_normal((bsz, c, h + 2 - 2 * padding,
                                 w + 2 - 2 * padding)),
            rng.standard_normal((o, c, 3, 3)) * 0.5,
            rng.standard_normal(o) * 0.5]
    # at this loss scale the finite differences' rounding stays far below
    # the tolerance on near-zero entries, where rel_err divides by 1e-6
    r = rng.standard_normal((bsz, o, h, w)) * 0.1
    # one leaf at a time, so the kernel also runs with a gradient skipped
    for i in range(3):
        def loss(leaf, i=i):
            x, wt, b = (leaf if j == i else Tensor(a)
                        for j, a in enumerate(args))
            y = ad.tanh(ad.conv2d(x, wt, b, padding=padding))
            return ad.tsum(ad.mul(y, Tensor(r)))
        assert check_tensor_grad(loss, args[i]) < 1e-4


@settings(max_examples=25, deadline=None, database=None)
@given(bsz=st.integers(1, 2), c=st.integers(1, 3), k=st.sampled_from([1, 2, 3]),
       hk=st.integers(1, 3), wk=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_avgpool_gradient_matches_finite_differences(bsz, c, k, hk, wk, seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((bsz, c, hk, wk))
    err = check_tensor_grad(
        lambda t: ad.tsum(ad.mul(ad.tanh(ad.avgpool2d(t, k)), Tensor(r))),
        rng.standard_normal((bsz, c, hk * k, wk * k)))
    assert err < 1e-4


@settings(max_examples=25, deadline=None, database=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 3), picks=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_take_rows_repeated_indices_gradient_matches_finite_differences(
        rows, cols, picks, seed):
    rng = np.random.default_rng(seed)
    # more picks than rows forces repeats; each repeat adds its gradient
    idx = rng.integers(0, rows, size=picks)
    r = rng.standard_normal((picks, cols)) * 0.1
    err = check_tensor_grad(
        lambda t: ad.tsum(ad.mul(ad.tanh(ad.take_rows(t, idx)), Tensor(r))),
        rng.standard_normal((rows, cols)))
    assert err < 1e-4


def _gru_step(x, h, *params):
    enc = GruEncoder(2, x.shape[1], h.shape[1])
    enc.params.update(zip(GATE_PARAMS, params))
    return enc.step(x, h)


def _normal(rng, *shapes):
    return [rng.standard_normal(s) for s in shapes]


# op -> builder(rng, n, m, k) giving (f, input arrays): f takes one Tensor
# per array and applies the op, with any non-tensor argument drawn here
OPS = {
    "add": lambda rng, n, m, k: (ad.add, _normal(rng, (n, m), (n, m))),
    "sub": lambda rng, n, m, k: (ad.sub, _normal(rng, (n, m), (n, m))),
    "mul": lambda rng, n, m, k: (ad.mul, _normal(rng, (n, m), (n, m))),
    "tanh": lambda rng, n, m, k: (ad.tanh, _normal(rng, (n, m))),
    "sigmoid": lambda rng, n, m, k: (ad.sigmoid, _normal(rng, (n, m))),
    "matmul": lambda rng, n, m, k: (ad.matmul, _normal(rng, (n, k), (k, m))),
    "add_bias": lambda rng, n, m, k: (ad.add_bias, _normal(rng, (n, m), (m,))),
    "linear": lambda rng, n, m, k: (ad.linear,
                                    _normal(rng, (n, k), (k, m), (m,))),
    "tsum": lambda rng, n, m, k: (ad.tsum, _normal(rng, (n, m))),
    "reshape": lambda rng, n, m, k: (lambda a: ad.reshape(a, (m, n)),
                                     _normal(rng, (n, m))),
    "take_rows": lambda rng, n, m, k: (
        lambda a, idx=rng.integers(0, n, size=k + 1): ad.take_rows(a, idx),
        _normal(rng, (n, m))),
    "concat_rows": lambda rng, n, m, k: (lambda *p: ad.concat_rows(p),
                                         _normal(rng, (n, m), (k, m))),
    "softmax_cross_entropy": lambda rng, n, m, k: (
        lambda a, t=rng.integers(0, m, size=n): ad.softmax_cross_entropy(a, t),
        _normal(rng, (n, m))),
    "conv2d": lambda rng, n, m, k: (
        ad.conv2d, _normal(rng, (1, k, n + 1, m + 1), (2, k, 3, 3), (2,))),
    "avgpool2d": lambda rng, n, m, k: (ad.avgpool2d,
                                       _normal(rng, (1, k, 2 * n, 2 * m))),
    "conv_tanh_pool": lambda rng, n, m, k: (ad.conv_tanh_pool, _normal(
        rng, (n, k, 2 * m, 2 * k), (2, k, 3, 3), (2,))),
    "gru_step": lambda rng, n, m, k: (_gru_step, _normal(
        rng, (n, k), (n, m), *[(k, m), (m, m), (m,)] * 3)),
}


def test_every_autodiff_op_has_a_gradient_check():
    # a public function of mrn.autodiff is an op: it gets an OPS entry, and
    # with it the gradient check and the tape check below
    ops = {name for name, f in vars(ad).items()
           if inspect.isfunction(f) and f.__module__ == ad.__name__
           and not name.startswith("_")}
    assert ops - set(OPS) == set()


@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=10, deadline=None, database=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), k=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_op_gradients_match_finite_differences(name, n, m, k, seed):
    rng = np.random.default_rng(seed)
    f, arrays = OPS[name](rng, n, m, k)
    # at this loss scale the finite differences' rounding stays far below
    # the tolerance on near-zero entries, where rel_err divides by 1e-6
    shape = f(*map(Tensor, arrays)).shape
    r0, r1 = (Tensor(rng.standard_normal(shape) * 0.1) for _ in range(2))

    def loss(*tensors):
        # the op twice, so every input's gradient accumulates across fan-out
        return ad.add(ad.tsum(ad.mul(f(*tensors), r0)),
                      ad.tsum(ad.mul(f(*tensors), r1)))

    # every input a leaf at once, each op backward feeding several leaves
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss(*leaves).backward()
    for i, leaf in enumerate(leaves):
        def value(x, i=i):
            return loss(*(Tensor(x if j == i else a)
                          for j, a in enumerate(arrays))).item()
        assert rel_err(leaf.grad, fd_grad(value, arrays[i].copy())) < 1e-4


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_joins_the_tape_only_when_a_gradient_reaches_it(name):
    f, arrays = OPS[name](np.random.default_rng(11), 2, 3, 2)
    out = f(*map(Tensor, arrays))
    assert not out.requires_grad
    assert out._parents == () and out._backward is None
    # the first input alone needing a gradient puts the node on the tape
    out = f(*(Tensor(a, requires_grad=i == 0) for i, a in enumerate(arrays)))
    assert out.requires_grad
    assert out._parents and out._backward is not None


def test_backward_from_a_constant_reaches_no_leaf():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    loss = ad.tsum(ad.mul(a, b))
    loss.backward()
    assert a.grad is None and b.grad is None
    # the root is a leaf like any other: it keeps the seed of ones
    assert loss.grad.shape == () and loss.grad == 1.0


@settings(max_examples=40, deadline=None, database=None)
@given(bsz=st.integers(1, 9), c=st.integers(1, 3), o=st.integers(1, 4),
       hc=st.sampled_from([2, 4, 6, 8]), wc=st.sampled_from([2, 4, 6, 8]),
       padding=st.sampled_from([0, 1]), trainable=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_conv_tanh_pool_equals_composed_ops_bitwise(bsz, c, o, hc, wc,
                                                    padding, trainable, seed):
    # trainable: plain images into trainable weights, as training runs the
    # stage; otherwise a pixel leaf into frozen weights, as viz runs it.
    # hc x wc is the conv map; the input is that size less the padding's gain
    h, w = hc + 2 - 2 * padding, wc + 2 - 2 * padding
    rng = np.random.default_rng(seed)
    x0, w0, b0, r0 = _normal(rng, (bsz, c, h, w), (o, c, 3, 3), (o,),
                             (bsz, o, hc // 2, wc // 2))

    def run(stage):
        x = Tensor(x0, requires_grad=not trainable)
        wt, bt = (Tensor(a, requires_grad=trainable) for a in (w0, b0))
        y = stage(x, wt, bt)
        ad.tsum(ad.mul(y, Tensor(r0))).backward()
        return [y.data] + [t.grad for t in (x, wt, bt) if t.requires_grad]

    fused = run(lambda x, wt, bt: ad.conv_tanh_pool(x, wt, bt, padding))
    composed = run(lambda x, wt, bt: ad.avgpool2d(
        ad.tanh(ad.conv2d(x, wt, bt, padding)), 2))
    assert len(fused) == len(composed) == (3 if trainable else 2)
    for a, b in zip(fused, composed):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
