import numpy as np
import pytest

from mrn import autodiff as ad
from mrn.autodiff import Tensor
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


def test_scalar_broadcast_allowed():
    out = ad.mul(Tensor(2.0), Tensor([1.0, 2.0]))
    assert out.data.tolist() == [2.0, 4.0]
    out = 1.0 - Tensor([0.25, 0.5])
    assert out.data.tolist() == [0.75, 0.5]


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
    err = check_tensor_grad(
        lambda t: ad.tmean(ad.reshape(t, (6,))), rng.standard_normal((2, 3)))
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
        logits = model.forward(images, batch)[1]
        ad.softmax_cross_entropy(logits, targets).backward()
        del logits
        leftover = gc.collect()
    finally:
        gc.enable()
    assert leftover == 0
