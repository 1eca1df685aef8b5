"""Adaptive-moment optimizer with decoupled weight decay and a one-cycle
learning-rate schedule: linear warmup over the first 10% of steps to the
configured peak, then cosine decay to peak/100 at the final step.

``total_steps`` counts optimizer iterations (one per batch), not scans."""

from __future__ import annotations

import numpy as np

WEIGHT_DECAY = 0.01
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def one_cycle_lr(step: int, total_steps: int, peak: float) -> float:
    """Learning rate at ``step`` (0-based) of a ``total_steps`` run."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    warmup = max(1, int(round(0.1 * total_steps)))
    if step < warmup:
        return peak * (step + 1) / warmup
    end = peak / 100.0
    span = max(1, total_steps - warmup)
    progress = (step - warmup + 1) / span
    return end + (peak - end) * 0.5 * (1.0 + np.cos(np.pi * progress))


class AdamW:
    """Per-parameter moment estimates over a ParameterStore.

    ``peak_lr(name)`` gives each parameter's schedule peak; every
    parameter follows the same one-cycle shape over ``total_steps``.
    A step updates exactly the parameters it has gradients for. The update
    uses ``BETA1``, ``BETA2`` and ``EPS`` with bias correction and
    decoupled weight decay ``WEIGHT_DECAY``.
    """

    def __init__(self, store, peak_lr, total_steps):
        self.store = store
        self.peak_lr = peak_lr
        self.total_steps = int(total_steps)
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self, grads: dict) -> None:
        """Apply one update from ``grads`` (name -> array)."""
        t = self.step_count + 1
        for name in sorted(grads):
            lr = one_cycle_lr(self.step_count, self.total_steps,
                              float(self.peak_lr(name)))
            g = grads[name].astype(np.float64)
            theta = self.store.get(name).astype(np.float64)
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(g)
                v = np.zeros_like(g)
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            self._m[name], self._v[name] = m, v
            m_hat = m / (1 - BETA1 ** t)
            v_hat = v / (1 - BETA2 ** t)
            theta -= lr * (m_hat / (np.sqrt(v_hat) + EPS) + WEIGHT_DECAY * theta)
            self.store.set(name, theta)
        self.step_count += 1
