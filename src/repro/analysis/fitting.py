"""Scaling-model fits.

The energy experiments need to distinguish "grows polylogarithmically in N"
from "grows polynomially in N".  Rather than estimating asymptotic exponents
(hopeless at laptop scale), each candidate model is fit by least squares and
the models are compared by residual error on held-in data:

* constant:    y = a
* log-power:   y = a · ln(x)^k        (k fit over a small grid)
* power law:   y = a · x^b            (fit in log–log space)
* linear:      y = a + b·x

``select_scaling_model`` returns the best model by mean squared error with a
mild complexity penalty, and the experiments report both the winner and the
fitted exponents, which is how the verdicts are phrased
("accesses/packet fit ln^3.1(N), far below the linear fit").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one scaling model."""

    model: str
    parameters: dict[str, float]
    mse: float
    r_squared: float
    predict: Callable[[float], float]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v:.3g}" for k, v in self.parameters.items())
        return f"{self.model}({params}) mse={self.mse:.4g} R^2={self.r_squared:.3f}"


def _validate(xs: Sequence[float], ys: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a model")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("x values must be positive (they are problem sizes)")
    return x, y


def _metrics(y: np.ndarray, predicted: np.ndarray) -> tuple[float, float]:
    residual = y - predicted
    mse = float(np.mean(residual**2))
    total = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 - float(np.sum(residual**2)) / total if total > 0.0 else 1.0
    return mse, r_squared


def fit_constant(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a``."""
    _, y = _validate(xs, ys)
    a = float(np.mean(y))
    mse, r_squared = _metrics(y, np.full_like(y, a))
    return FitResult(
        model="constant",
        parameters={"a": a},
        mse=mse,
        r_squared=r_squared,
        predict=lambda _x, _a=a: _a,
    )


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a + b·x``."""
    x, y = _validate(xs, ys)
    b, a = np.polyfit(x, y, 1)
    predicted = a + b * x
    mse, r_squared = _metrics(y, predicted)
    return FitResult(
        model="linear",
        parameters={"a": float(a), "b": float(b)},
        mse=mse,
        r_squared=r_squared,
        predict=lambda _x, _a=float(a), _b=float(b): _a + _b * _x,
    )


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit ``y = a · x^b`` by linear regression in log–log space."""
    x, y = _validate(xs, ys)
    if np.any(y <= 0.0):
        raise ValueError("power-law fits require positive y values")
    b, log_a = np.polyfit(np.log(x), np.log(y), 1)
    a = float(np.exp(log_a))
    predicted = a * x ** float(b)
    mse, r_squared = _metrics(y, predicted)
    return FitResult(
        model="power",
        parameters={"a": a, "b": float(b)},
        mse=mse,
        r_squared=r_squared,
        predict=lambda _x, _a=a, _b=float(b): _a * _x**_b,
    )


def fit_log_power(
    xs: Sequence[float],
    ys: Sequence[float],
    exponents: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 5.0),
) -> FitResult:
    """Fit ``y = a · ln(x)^k`` over a grid of exponents ``k``.

    For each candidate ``k`` the scale ``a`` has a closed-form least-squares
    solution; the best ``(a, k)`` pair by mean squared error wins.  Problem
    sizes of 1 (where ``ln(x) = 0``) are rejected because the model cannot
    represent them.
    """
    x, y = _validate(xs, ys)
    if np.any(x <= 1.0):
        raise ValueError("log-power fits require x values greater than 1")
    best: FitResult | None = None
    for k in exponents:
        basis = np.log(x) ** k
        denom = float(np.dot(basis, basis))
        if denom == 0.0:
            continue
        a = float(np.dot(basis, y) / denom)
        predicted = a * basis
        mse, r_squared = _metrics(y, predicted)
        candidate = FitResult(
            model="log-power",
            parameters={"a": a, "k": float(k)},
            mse=mse,
            r_squared=r_squared,
            predict=lambda _x, _a=a, _k=float(k): _a * math.log(_x) ** _k,
        )
        if best is None or candidate.mse < best.mse:
            best = candidate
    if best is None:
        raise ValueError("no admissible exponent in the grid")
    return best


def select_scaling_model(
    xs: Sequence[float],
    ys: Sequence[float],
    complexity_penalty: float = 1.05,
) -> FitResult:
    """Pick the best scaling model for ``(xs, ys)``.

    Models are compared by mean squared error; multi-parameter models
    (power, linear) must beat simpler ones (constant, log-power) by the
    multiplicative ``complexity_penalty`` to win, which keeps the verdict
    stable when two models fit almost equally well.
    """
    if complexity_penalty < 1.0:
        raise ValueError("complexity_penalty must be at least 1")
    simple = [fit_constant(xs, ys)]
    try:
        simple.append(fit_log_power(xs, ys))
    except ValueError:
        pass
    complex_models = [fit_linear(xs, ys)]
    try:
        complex_models.append(fit_power_law(xs, ys))
    except ValueError:
        pass
    best_simple = min(simple, key=lambda fit: fit.mse)
    best_complex = min(complex_models, key=lambda fit: fit.mse)
    if best_complex.mse * complexity_penalty < best_simple.mse:
        return best_complex
    return best_simple
