"""Adam over numpy parameter arrays, and the one descent loop that drives
it for both subject-fit stages (motion correction uses neither)."""

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction.  Only the step size
    ``lr`` is settable; ``BETA1``, ``BETA2`` and ``EPSILON`` are the usual."""

    def __init__(self, lr):
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate lr must be finite and > 0, got {lr}")
        self.lr = lr
        self.m = None
        self.v = None
        self.t = 0

    def step(self, params, grads):
        """Return updated parameters; moments live in the optimizer."""
        params = np.asarray(params, dtype=np.float64)
        grads = np.asarray(grads, dtype=np.float64)
        if params.shape != grads.shape:
            raise ValueError("params and grads must have the same shape")
        if not np.all(np.isfinite(grads)):
            raise ValueError("non-finite gradient passed to Adam")
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grads
        self.v = BETA2 * self.v + (1.0 - BETA2) * grads**2
        m_hat = self.m / (1.0 - BETA1**self.t)
        v_hat = self.v / (1.0 - BETA2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + EPSILON)


def descend(objective, params, iterations, lr, what):
    """Minimise ``objective`` with Adam from ``params`` for ``iterations`` steps.

    ``objective(params, it)`` returns the value at ``params`` and the
    gradient, shaped as ``params``; ``lr(it)`` is the step size of iteration
    ``it``.  Returns the first iterate of least value, its iteration, and
    every value in order.  A non-finite value raises ``RuntimeError`` naming
    ``what`` and the iteration.
    """
    adam = Adam(lr=lr(0))
    best_value, best, best_it = np.inf, params.copy(), 0
    values = []
    for it in range(iterations):
        value, grad = objective(params, it)
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss in {what}, iteration {it}")
        values.append(value)
        if value < best_value:
            best_value, best, best_it = value, params.copy(), it
        adam.lr = lr(it)
        params = adam.step(params, grad)
        del grad
    return best, best_it, values
