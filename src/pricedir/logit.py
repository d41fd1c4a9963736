"""Binary logistic regression by Newton-Raphson (IRLS) with Wald inference.

The fit maximizes the Bernoulli log-likelihood over an intercept plus the
given feature columns, with step-halving so the likelihood never
decreases, a small ridge retry when the information matrix is singular,
and coefficient-blow-up detection for separated data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import LogitConfig
from .errors import SingularDesignError, ValidationError

RIDGE = 1e-8
# Any coefficient this large means the likelihood is running off to a
# separating hyperplane rather than an interior maximum.
SEPARATION_BOUND = 30.0


def sigmoid(eta):
    """Numerically stable logistic function, elementwise.

    ``1 / (1 + exp(-eta))`` for ``eta >= 0`` and ``exp(eta) / (1 + exp(eta))``
    below, both written through ``e = exp(-|eta|)`` so that no element is
    gathered or scattered by a mask.  ``e`` lies in [0, 1], so the
    numerator ``max(e, eta >= 0)`` is exactly 1 or ``e`` (NaN stays NaN).
    """
    eta = np.asarray(eta, dtype=float)
    e = np.exp(-np.abs(eta))
    out = np.maximum(e, eta >= 0) / (1.0 + e)
    return out if out.ndim else float(out)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function.

    math.erfc is correctly rounded, comfortably inside 1e-10 everywhere.
    """
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _two_sided_pvalues(z: np.ndarray) -> np.ndarray:
    """Two-sided normal p-values 2*(1 - Phi(|z|)), elementwise."""
    return np.array([2.0 * (1.0 - normal_cdf(abs(zj))) for zj in z])


@dataclass
class LogitFit:
    """Fitted coefficients with Wald inference, intercept first."""

    feature_names: list[str]
    beta: np.ndarray
    std_err: np.ndarray
    z_score: np.ndarray
    p_value: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    separation_detected: bool
    ll_history: list[float] = field(default_factory=list)


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # sum(y*eta - log(1 + e^eta)), stable for large |eta|
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def _solve_information(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs, retrying once with a ridge term on the diagonal."""
    try:
        x = np.linalg.solve(H, rhs)
        if np.all(np.isfinite(x)):
            return x
    except np.linalg.LinAlgError:
        pass
    ridged = H + RIDGE * np.eye(H.shape[0])
    try:
        x = np.linalg.solve(ridged, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(
            "information matrix singular even with ridge term"
        ) from exc
    if not np.all(np.isfinite(x)):
        raise SingularDesignError("information matrix singular even with ridge term")
    return x


def _covariance(H: np.ndarray) -> np.ndarray:
    return _solve_information(H, np.eye(H.shape[0]))


def fit_logit(
    X,
    y,
    max_iter: int = LogitConfig.max_iter,
    tol: float = LogitConfig.tol,
    feature_names: Optional[Sequence[str]] = None,
) -> LogitFit:
    """Maximum-likelihood logistic fit with an intercept prepended internally.

    Converges when the largest score (gradient) component falls below
    ``tol`` or an iteration improves the log-likelihood by less than
    ``tol``.  Coefficient blow-up beyond 30 marks the fit as separated
    and returns it unconverged instead of failing.

    Args:
        X: n x m matrix of finite feature values (m may be 0).
        y: length-n vector of 0/1 labels.

    Raises:
        ValidationError: non-finite X, non-binary y, or n <= m + 1.
        SingularDesignError: information matrix unusable even with ridge.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-D matrix")
    n, m = X.shape
    if len(y) != n:
        raise ValidationError(f"X has {n} rows but y has {len(y)}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("X contains non-finite values")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValidationError("y must contain only 0 and 1")
    if n <= m + 1:
        raise ValidationError(f"need n > m + 1 rows, have n={n}, m={m}")
    if feature_names is None:
        feature_names = [f"x{j + 1}" for j in range(m)]
    elif len(feature_names) != m:
        raise ValidationError("feature_names length must match X columns")
    names = ["intercept"] + list(feature_names)

    Xd = np.hstack([np.ones((n, 1)), X])
    beta = np.zeros(m + 1)
    ll = _log_likelihood(Xd @ beta, y)
    history = [ll]
    converged = False
    separated = False
    iterations = 0

    for _ in range(max_iter):
        eta = Xd @ beta
        p = sigmoid(eta)
        score = Xd.T @ (y - p)
        if np.max(np.abs(score)) < tol:
            converged = True
            break
        weights = p * (1.0 - p)
        H = Xd.T @ (weights[:, None] * Xd)
        delta = _solve_information(H, score)

        # step-halving: never accept a likelihood decrease
        step = 1.0
        new_beta = beta + delta
        new_ll = _log_likelihood(Xd @ new_beta, y)
        while new_ll < ll and step > 2.0**-40:
            step /= 2.0
            new_beta = beta + step * delta
            new_ll = _log_likelihood(Xd @ new_beta, y)
        if new_ll < ll:
            # no improving step exists at this point; treat as converged
            converged = True
            break

        iterations += 1
        beta = new_beta
        improvement = new_ll - ll
        ll = new_ll
        history.append(ll)

        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            separated = True
            break
        if improvement < tol:
            converged = True
            break

    if separated:
        converged = False

    eta = Xd @ beta
    p = sigmoid(eta)
    weights = np.clip(p * (1.0 - p), 1e-300, None)
    H = Xd.T @ (weights[:, None] * Xd)
    cov = _covariance(H)
    variances = np.clip(np.diag(cov), 0.0, None)
    std_err = np.sqrt(variances)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std_err > 0, beta / std_err, np.inf * np.sign(beta))
        z = np.where((std_err > 0) | (beta != 0), z, 0.0)
    pvals = np.clip(_two_sided_pvalues(z), 0.0, 1.0)

    return LogitFit(
        feature_names=names,
        beta=beta,
        std_err=std_err,
        z_score=z,
        p_value=pvals,
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        separation_detected=separated,
        ll_history=history,
    )


def select_features(fit: LogitFit, alpha: float) -> list[str]:
    """Non-intercept features with p < alpha, in original column order."""
    return [
        name
        for name, p in zip(fit.feature_names[1:], fit.p_value[1:])
        if p < alpha
    ]
