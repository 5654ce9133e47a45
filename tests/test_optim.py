import numpy as np
import pytest

from cardioshape.optim import Adam, descend


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
    adam = Adam(lr=0.1)
    with pytest.raises(ValueError, match="non-finite"):
        adam.step(np.zeros(2), np.array([np.nan, 0.0]))


def test_shape_mismatch_rejected():
    adam = Adam(lr=0.1)
    with pytest.raises(ValueError, match="same shape"):
        adam.step(np.zeros(2), np.zeros(3))


def test_invalid_hyperparameters():
    for lr in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="lr"):
            Adam(lr=lr)


def _quadratic(params, it):
    return float(params @ params), 2.0 * params


def test_descend_keeps_first_least_iterate():
    # values fall to 1.0 at iteration 2, tie at 4 and rise after
    values = [3.0, 2.0, 1.0, 1.5, 1.0, 2.0]

    def objective(params, it):
        return values[it], np.ones_like(params)

    start = np.array([0.0, 0.0])
    best, best_it, seen = descend(objective, start, len(values), lambda it: 0.1, "test")
    assert best_it == 2
    # every step moves each parameter down by exactly lr under a constant gradient
    assert np.allclose(best, -0.2)
    assert seen == values
    assert np.array_equal(start, [0.0, 0.0])


def test_descend_values_are_the_objective_outputs():
    returned = []

    def objective(params, it):
        value, grad = _quadratic(params, it)
        returned.append(value)
        return value, grad

    _, _, values = descend(objective, np.array([1.0, -2.0]), 25, lambda it: 0.05, "test")
    assert values == returned
    assert len(values) == 25


def test_descend_equals_hand_written_adam_loop():
    lr = lambda it: 0.3 * 0.5 ** (it / 39)  # noqa: E731
    start = np.array([1.5, -0.7, 0.2])
    best, best_it, values = descend(_quadratic, start, 40, lr, "test")
    adam = Adam(lr=lr(0))
    params = start.copy()
    ref_best, ref_it, ref_values = np.inf, None, []
    for it in range(40):
        value, grad = _quadratic(params, it)
        ref_values.append(value)
        if value < ref_best:
            ref_best, kept, ref_it = value, params.copy(), it
        adam.lr = lr(it)
        params = adam.step(params, grad)
    assert values == ref_values
    assert best_it == ref_it
    assert np.array_equal(best, kept)


def test_descend_nan_names_what_and_iteration():
    def objective(params, it):
        return (np.nan if it == 3 else 1.0), np.zeros_like(params)

    with pytest.raises(RuntimeError, match="non-finite loss in stage 7, iteration 3"):
        descend(objective, np.zeros(2), 10, lambda it: 0.1, "stage 7")
