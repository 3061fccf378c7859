import numpy as np

from mrn import kernels


def test_forward_matches_direct_sum():
    rng = np.random.default_rng(2)
    xp = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    y = kernels.conv2d_forward(xp, w)
    expect = np.zeros((1, 3, 3, 3))
    for o in range(3):
        for i in range(3):
            for j in range(3):
                expect[0, o, i, j] = np.sum(xp[0, :, i:i + 3, j:j + 3] * w[o])
    assert np.max(np.abs(y - expect)) < 1e-12
