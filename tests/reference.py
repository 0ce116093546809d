"""One-model reference implementations that the tests compare against.

No training path calls these: `fedcurv.local_train` takes the same steps
for a whole cohort at once.
"""

import numpy as np

from bfel import models
from bfel.fedcurv import FisherDiagonal
from bfel.models import ModelSpec, ParameterVector, require_same_layout


def sgd_step(
    params: ParameterVector, grad: ParameterVector, lr: float
) -> ParameterVector:
    """One plain SGD step: params - lr * grad."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    require_same_layout(params, grad)
    return params.with_values(params.values - lr * grad.values)


def regularized_loss(
    spec: ModelSpec,
    theta: ParameterVector,
    theta_global: ParameterVector,
    fisher: FisherDiagonal,
    x: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> float:
    """Cross-entropy plus (lam/2) * sum_i F[i] * (theta - theta_global)[i]^2."""
    require_same_layout(theta, theta_global)
    loss, _ = models.loss_and_grad(spec, theta, x, labels)
    if lam == 0.0:
        return loss
    diff = theta.values - theta_global.values
    return loss + 0.5 * lam * float(np.dot(fisher.values, diff * diff))


def regularized_gradient(
    spec: ModelSpec,
    theta: ParameterVector,
    theta_global: ParameterVector,
    fisher: FisherDiagonal,
    x: np.ndarray,
    labels: np.ndarray,
    lam: float,
) -> ParameterVector:
    """Gradient of regularized_loss: dL + lam * F * (theta - theta_global)."""
    require_same_layout(theta, theta_global)
    _, grad = models.loss_and_grad(spec, theta, x, labels)
    if lam == 0.0:
        return grad
    penalty = lam * fisher.values * (theta.values - theta_global.values)
    return grad.with_values(grad.values + penalty)
