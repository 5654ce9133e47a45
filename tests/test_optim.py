import numpy as np
import pytest

from cardioshape.optim import Adam


def test_zero_gradient_leaves_params():
    adam = Adam(lr=0.1)
    params = np.array([1.0, -2.0, 3.0])
    out = adam.step(params, np.zeros(3))
    assert np.array_equal(out, params)


def test_quadratic_converges():
    adam = Adam(lr=0.1)
    x = np.array([1.0])
    for _ in range(200):
        x = adam.step(x, 2.0 * x)
    assert abs(x[0]) < 1e-3


def test_first_step_magnitude_is_lr():
    # bias-corrected Adam moves by ~lr on the first step regardless of the
    # gradient magnitude (epsilon only matters for gradients near 1e-8)
    for g in (0.01, 1.0, 1e6):
        adam = Adam(lr=0.05)
        out = adam.step(np.zeros(1), np.array([g]))
        assert abs(abs(out[0]) - 0.05) < 1e-6


def test_nan_gradient_rejected():
    adam = Adam()
    with pytest.raises(ValueError, match="non-finite"):
        adam.step(np.zeros(2), np.array([np.nan, 0.0]))


def test_shape_mismatch_rejected():
    adam = Adam()
    with pytest.raises(ValueError, match="same shape"):
        adam.step(np.zeros(2), np.zeros(3))


def test_invalid_hyperparameters():
    for lr in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="lr"):
            Adam(lr=lr)
    with pytest.raises(ValueError):
        Adam(beta1=1.0)
    with pytest.raises(ValueError):
        Adam(epsilon=0.0)
