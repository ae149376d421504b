"""Adam optimizer (Kingma & Ba, 2014), used by every discriminative model.

The paper trains its end models with Adam; this is a small, dependency-free
implementation over flat numpy parameter arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError


class AdamOptimizer:
    """First-order adaptive-moment optimizer for a single parameter array.

    Parameters
    ----------
    learning_rate:
        Base step size.
    beta1, beta2:
        Exponential decay rates for the first and second moment estimates.
    epsilon:
        Numerical stabilizer added to the denominator.
    """

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if not (np.isfinite(learning_rate) and learning_rate > 0):
            raise ConfigurationError(f"learning_rate must be finite and > 0, got {learning_rate!r}")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1)")
        if not (np.isfinite(epsilon) and epsilon >= 0):
            raise ConfigurationError(f"epsilon must be finite and >= 0, got {epsilon!r}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._first_moment: Optional[np.ndarray] = None
        self._second_moment: Optional[np.ndarray] = None
        self._step_count = 0

    def reset(self) -> None:
        """Clear the optimizer state (moments and step count)."""
        self._first_moment = None
        self._second_moment = None
        self._step_count = 0

    def get_state(self) -> dict:
        """Snapshot the optimizer state (moments + step count).

        The snapshot owns its arrays, so later :meth:`step` calls cannot
        mutate it — restoring it with :meth:`set_state` resumes the update
        sequence exactly where the snapshot was taken (epoch checkpointing
        relies on this being bit-exact).
        """
        return {
            "first_moment": None if self._first_moment is None else self._first_moment.copy(),
            "second_moment": None if self._second_moment is None else self._second_moment.copy(),
            "step_count": self._step_count,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        first = state["first_moment"]
        second = state["second_moment"]
        self._first_moment = None if first is None else np.asarray(first, dtype=float).copy()
        self._second_moment = None if second is None else np.asarray(second, dtype=float).copy()
        self._step_count = int(state["step_count"])

    def step(self, parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        """Return updated parameters after one Adam step along ``-gradient``.

        The moments are updated in place and the temporaries reused; every
        element still sees the textbook operations in the textbook order, so
        the result is bitwise that of the allocating formulation.
        """
        parameters = np.asarray(parameters, dtype=float)
        gradient = np.asarray(gradient, dtype=float)
        if parameters.shape != gradient.shape:
            raise ConfigurationError(
                f"parameter shape {parameters.shape} does not match gradient shape "
                f"{gradient.shape}"
            )
        first, second = self._first_moment, self._second_moment
        if first is None or first.shape != parameters.shape:
            first = self._first_moment = np.zeros_like(parameters)
            second = self._second_moment = np.zeros_like(parameters)
            self._step_count = 0
        self._step_count += 1
        first *= self.beta1
        first += (1 - self.beta1) * gradient
        second *= self.beta2
        second += (1 - self.beta2) * np.square(gradient)
        step = first / (1 - self.beta1**self._step_count)
        step *= self.learning_rate
        scale = second / (1 - self.beta2**self._step_count)
        np.sqrt(scale, out=scale)
        scale += self.epsilon
        step /= scale
        return parameters - step
