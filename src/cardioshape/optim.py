"""Adam optimizer over flat numpy parameter arrays."""

import numpy as np


class Adam:
    """Standard Adam with bias correction.

    Only the learning rate is exposed prominently; the moment decay rates and
    epsilon use the conventional defaults.
    """

    def __init__(self, lr=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8):
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
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
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grads**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
