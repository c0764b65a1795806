"""Zeroth-order decay fitting: F(s) = A0 p^s + B0.

The decay parameter p carries the average gate fidelity (1 + p) / 2; A0 and
B0 absorb preparation and measurement imperfections. Fitting is a
deterministic two-stage scheme: plateau/log-linear initialization followed by
bounded, damped Gauss-Newton refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARAM_LOWER = np.array([-1.0, 0.0, 0.0])  # a0, b0, p
PARAM_UPPER = np.array([1.0, 1.0, 1.0])
_DEGENERATE_SPREAD = 1e-12
MIN_RESAMPLES = 100


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay parameters and the implied average gate fidelity."""

    a0: float
    b0: float
    p: float
    avg_fidelity: float
    residual_norm: float
    ci_p: tuple[float, float] | None = None
    degenerate: bool = False
    clamped: bool = False
    iterations: int = 0


def fidelity_from_p(p: float) -> float:
    """Average gate fidelity (1 + p) / 2 of a depolarizing channel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"decay parameter must lie in [0, 1], got {p}")
    return (1.0 + p) / 2.0


def _parse_points(points):
    lengths, means, errs = [], [], []
    for pt in points:
        if len(pt) == 2:
            s, mean = pt
            err = None
        else:
            s, mean, err = pt
        lengths.append(float(s))
        means.append(float(mean))
        errs.append(err)
    s = np.asarray(lengths)
    y = np.asarray(means)
    if len(set(s.tolist())) < 3:
        raise ValueError("fitting requires at least 3 distinct sequence lengths")
    if np.any(y < -1e-12) or np.any(y > 1.0 + 1e-12):
        raise ValueError("sequence-fidelity means must lie in [0, 1]")
    if any(e is None or not e > 0.0 for e in errs):
        w = np.ones_like(y)
    else:
        w = 1.0 / np.asarray(errs, dtype=float) ** 2
    order = np.argsort(s)
    return s[order], y[order], w[order]


def _initial_guess(s, y):
    distinct = np.unique(s)
    tail = np.isin(s, distinct[-2:])
    b0 = float(np.clip(y[tail].mean(), 0.0, 1.0))
    resid = y - b0
    sgn = 1.0 if resid[0] >= 0.0 else -1.0
    usable = sgn * resid > 1e-12
    if usable.sum() >= 2:
        slope, intercept = np.polyfit(s[usable], np.log(sgn * resid[usable]), 1)
        p0 = float(np.clip(np.exp(slope), 1e-6, 1.0 - 1e-6))
        a0 = float(np.clip(sgn * np.exp(intercept), -1.0, 1.0))
    else:
        p0 = 0.9
        a0 = float(np.clip(resid[0], -1.0, 1.0))
    return np.array([a0, b0, p0])


def fit_decay(points, max_iterations: int = 500, rel_tol: float = 1e-12) -> DecayFit:
    """Weighted least-squares fit of A0 p^s + B0 to sequence-fidelity points.

    ``points`` holds (s, mean) or (s, mean, stderr) tuples; inverse-variance
    weights are used when every stderr is present and positive. Parameters
    are constrained to |A0| <= 1, 0 <= B0 <= 1, 0 <= p <= 1. Constant data
    yields a degenerate fit flagged as such, with p pinned to 1.
    """
    s, y, w = _parse_points(points)
    sqrtw = np.sqrt(w)

    if np.ptp(y) < _DEGENERATE_SPREAD:
        b0 = float(y.mean())
        resid = sqrtw * (b0 - y)
        return DecayFit(
            a0=0.0,
            b0=b0,
            p=1.0,
            avg_fidelity=fidelity_from_p(1.0),
            residual_norm=float(np.sqrt(resid @ resid)),
            degenerate=True,
        )

    x = _initial_guess(s, y)

    def residuals(params):
        a0, b0, p = params
        return sqrtw * (a0 * p**s + b0 - y)

    r = residuals(x)
    cost = float(r @ r)
    lam = 1e-3
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        a0, _, p = x
        model_pow = p**s
        jac = np.column_stack([model_pow, np.ones_like(s), a0 * s * p ** (s - 1)])
        jac *= sqrtw[:, None]
        grad = jac.T @ r
        hess = jac.T @ jac
        step = None
        for _ in range(60):
            try:
                delta = np.linalg.solve(hess + lam * np.eye(3), grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            candidate = np.clip(x - delta, PARAM_LOWER, PARAM_UPPER)
            r_new = residuals(candidate)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                step = candidate - x
                x, r, cost = candidate, r_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 10.0
        if step is None:
            break
        if np.all(np.abs(step) <= rel_tol * (np.abs(x) + rel_tol)):
            break

    a0, b0, p = (float(v) for v in x)
    clamped = p <= 1e-12 or p >= 1.0 - 1e-12
    return DecayFit(
        a0=a0,
        b0=b0,
        p=p,
        avg_fidelity=fidelity_from_p(p),
        residual_norm=float(np.sqrt(cost)),
        clamped=clamped,
        iterations=iterations,
    )


def bootstrap_ci(
    dataset, resamples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """95% percentile bootstrap interval for p, resampling sequences per length.

    ``dataset`` is any object exposing ``lengths()`` and
    ``survival_fractions(s)`` (see the engine's RBDataset).
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"bootstrap needs at least {MIN_RESAMPLES} resamples")
    lengths = dataset.lengths()
    fractions = {s: dataset.survival_fractions(s) for s in lengths}
    ps = np.empty(resamples)
    for k in range(resamples):
        pts = []
        for s in lengths:
            f = fractions[s]
            sample = f[rng.integers(0, f.size, size=f.size)]
            if sample.size > 1:
                stderr = float(sample.std(ddof=1) / np.sqrt(sample.size))
            else:
                stderr = 0.0
            pts.append((s, float(sample.mean()), stderr))
        ps[k] = fit_decay(pts).p
    low, high = np.percentile(ps, [2.5, 97.5])
    return float(low), float(high)
