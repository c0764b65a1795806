"""Zeroth-order decay fitting: F(s) = A0 p^s + B0.

The decay parameter p carries the average gate fidelity (1 + p) / 2; A0 and
B0 absorb preparation and measurement imperfections. Fitting is a
deterministic two-stage scheme: plateau/log-linear initialization followed by
bounded, damped Gauss-Newton refinement.

One solver fits a batch of data rows that share their lengths. Every row
keeps its own damping, its own accept/reject decision, its own stop and its
own iteration cap, so a row's fit does not depend on the rest of its batch.
``fit_decay`` is a batch of one; ``bootstrap_ci`` fits all its resamples in
one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import MIN_RESAMPLES

PARAM_LOWER = np.array([-1.0, 0.0, 0.0])  # a0, b0, p
PARAM_UPPER = np.array([1.0, 1.0, 1.0])
_DEGENERATE_SPREAD = 1e-12
MAX_ITERATIONS = 500
REL_TOL = 1e-12


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay parameters and the implied average gate fidelity."""

    a0: float
    b0: float
    p: float
    avg_fidelity: float
    residual_norm: float
    degenerate: bool = False
    clamped: bool = False
    iterations: int = 0


def fidelity_from_p(p: float) -> float:
    """Average gate fidelity (1 + p) / 2 of a depolarizing channel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"decay parameter must lie in [0, 1], got {p}")
    return (1.0 + p) / 2.0


def _check_points(s, y):
    if len(set(s.tolist())) < 3:
        raise ValueError("fitting requires at least 3 distinct sequence lengths")
    if np.any(y < -1e-12) or np.any(y > 1.0 + 1e-12):
        raise ValueError("sequence-fidelity means must lie in [0, 1]")


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
    _check_points(s, y)
    if any(e is None or not e > 0.0 for e in errs):
        w = np.ones_like(y)
    else:
        w = 1.0 / np.asarray(errs, dtype=float) ** 2
    order = np.argsort(s)
    return s[order], y[order], w[order]


def _initial_guess(s, y):
    # s is sorted: the tail is every point at its two largest distinct lengths
    tail = s >= s[s < s[-1]][-1]
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


def _residuals(x, s, y, sqrtw):
    return sqrtw * (x[:, :1] * x[:, 2:] ** s + x[:, 1:2] - y)


def _squared_norms(r):
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _solve_rows(a, b):
    """Solve a[i] @ d[i] = b[i] for every row; a singular row gets NaN."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(b, np.nan)
        for i in range(len(b)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _fit_rows(s, y, w):
    """Bounded, damped Gauss-Newton fit of A0 p^s + B0 to every row of y.

    ``s`` (n,) holds the lengths, sorted; ``y`` and ``w`` (rows, n) hold the
    means and the weights. Each trial step solves the damped normal equations
    of all rows still pending at once. A row accepts its step when the cost
    does not rise (its damping then falls by 3, else it rises by 10), and
    stops when its step is below ``REL_TOL``, when no damping gives a step, or
    after ``MAX_ITERATIONS``. A row whose means spread by less than 1e-12 is
    degenerate: A0 = 0, p = 1 and B0 its mean, with no iteration.

    Returns the parameters (rows, 3) as (a0, b0, p), the weighted costs, the
    iteration counts and the degenerate mask.
    """
    sqrtw = np.sqrt(w)
    degenerate = np.ptp(y, axis=1) < _DEGENERATE_SPREAD
    active = np.flatnonzero(~degenerate)
    x = np.empty((len(y), 3))
    x[degenerate] = 0.0, 0.0, 1.0
    x[degenerate, 1] = y[degenerate].mean(axis=1)
    # The start comes from np.polyfit row by row: where the step rule stops
    # early, an ulp in the start moves a0 by 1e-9.
    for row in active:
        x[row] = _initial_guess(s, y[row])
    r = _residuals(x, s, y, sqrtw)
    cost = _squared_norms(r)
    lam = np.full(len(y), 1e-3)
    iterations = np.zeros(len(y), dtype=int)
    damping = np.eye(3)
    for iteration in range(1, MAX_ITERATIONS + 1):
        if active.size == 0:
            break
        iterations[active] = iteration
        a0, p = x[active, :1], x[active, 2:]
        jac = np.empty((active.size, s.size, 3))
        jac[..., 0] = p**s
        jac[..., 1] = 1.0
        jac[..., 2] = a0 * s * p ** (s - 1)
        jac *= sqrtw[active, :, None]
        # Stacked matmuls make the same BLAS call for every row, so a row
        # gets the same bits in a batch of any size.
        jac_t = jac.transpose(0, 2, 1)
        grad = (jac_t @ r[active, :, None])[..., 0]
        hess = jac_t @ jac
        pending = np.arange(active.size)
        stepped = np.zeros(active.size, dtype=bool)
        converged = np.zeros(active.size, dtype=bool)
        for _ in range(60):
            if pending.size == 0:
                break
            rows = active[pending]
            delta = _solve_rows(hess[pending] + lam[rows, None, None] * damping, grad[pending])
            candidate = np.clip(x[rows] - delta, PARAM_LOWER, PARAM_UPPER)
            r_new = _residuals(candidate, s, y[rows], sqrtw[rows])
            cost_new = _squared_norms(r_new)
            ok = cost_new <= cost[rows]
            took = rows[ok]
            step = candidate[ok] - x[took]
            x[took], r[took], cost[took] = candidate[ok], r_new[ok], cost_new[ok]
            lam[took] = np.maximum(lam[took] / 3.0, 1e-14)
            lam[rows[~ok]] *= 10.0
            stepped[pending[ok]] = True
            converged[pending[ok]] = (
                np.abs(step) <= REL_TOL * (np.abs(x[took]) + REL_TOL)
            ).all(axis=1)
            pending = pending[~ok]
        active = active[stepped & ~converged]
    return x, cost, iterations, degenerate


def fit_decay(points) -> DecayFit:
    """Weighted least-squares fit of A0 p^s + B0 to sequence-fidelity points.

    ``points`` holds (s, mean) or (s, mean, stderr) tuples; inverse-variance
    weights are used when every stderr is present and positive. Parameters
    are constrained to |A0| <= 1, 0 <= B0 <= 1, 0 <= p <= 1. Constant data
    yields a degenerate fit flagged as such, with p pinned to 1.
    """
    s, y, w = _parse_points(points)
    x, cost, iterations, degenerate = _fit_rows(s, y[None], w[None])
    a0, b0, p = (float(v) for v in x[0])
    return DecayFit(
        a0=a0,
        b0=b0,
        p=p,
        avg_fidelity=fidelity_from_p(p),
        residual_norm=float(np.sqrt(cost[0])),
        degenerate=bool(degenerate[0]),
        clamped=not degenerate[0] and (p <= 1e-12 or p >= 1.0 - 1e-12),
        iterations=int(iterations[0]),
    )


def _resample_points(dataset, resamples: int, rng: np.random.Generator):
    """Per-length means and weights (resamples, lengths) of bootstrap resamples.

    Each resample draws ``k`` indices below ``k`` for every length with ``k``
    sequences, in length order, into one index array; each length's block of
    it then gives that length's means and ddof=1 standard errors for every
    resample at once. A run of consecutive lengths with the same ``k`` is
    drawn by one ``rng.integers`` call: bounded int64 draws below 2**32 take
    one 32-bit word per value and keep no state between calls, so this gives
    the same indices as one ``rng.integers(0, k, size=k)`` per (resample,
    length). A resample with a zero standard error at some length gets unit
    weights.
    """
    lengths = dataset.lengths()
    fractions = [dataset.survival_fractions(s) for s in lengths]
    sizes = [f.size for f in fractions]
    edges = np.cumsum([0] + sizes)
    blocks = list(zip(fractions, edges[:-1], edges[1:]))
    # (k, lo, hi) of each run of consecutive lengths with k sequences each
    starts = [j for j in range(len(sizes)) if j == 0 or sizes[j] != sizes[j - 1]]
    runs = [(sizes[a], edges[a], edges[b]) for a, b in zip(starts, starts[1:] + [len(sizes)])]
    picks = np.empty((resamples, edges[-1]), dtype=np.min_scalar_type(max(sizes) - 1))
    for row in picks:
        for k, lo, hi in runs:
            row[lo:hi] = rng.integers(0, k, size=hi - lo)
    means = np.empty((resamples, len(lengths)))
    stderrs = np.zeros_like(means)
    for j, (f, lo, hi) in enumerate(blocks):
        sample = f[picks[:, lo:hi]]
        means[:, j] = sample.mean(axis=1)
        if f.size > 1:
            stderrs[:, j] = sample.std(axis=1, ddof=1) / np.sqrt(f.size)
    s = np.asarray(lengths, dtype=float)
    _check_points(s, means)
    weights = np.ones_like(stderrs)
    weighted = np.all(stderrs > 0.0, axis=1)
    weights[weighted] = 1.0 / stderrs[weighted] ** 2
    order = np.argsort(s)
    return s[order], means[:, order], weights[:, order]


def bootstrap_ci(
    dataset, resamples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """95% percentile bootstrap interval for p, resampling sequences per length.

    ``dataset`` is any object exposing ``lengths()`` and
    ``survival_fractions(s)`` (see the engine's RBDataset). A seed always
    resamples the same sequences as one ``rng.integers`` call per (resample,
    length) would; every resample is then fitted in one batched solve, as
    ``fit_decay`` would fit it alone. The interval's ends are the 2.5% and
    97.5% points of the fitted p values, bit for bit as
    ``np.percentile(p, [2.5, 97.5])`` gives them.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"bootstrap needs at least {MIN_RESAMPLES} resamples")
    x, _, _, _ = _fit_rows(*_resample_points(dataset, resamples, rng))
    return _central_95(x[:, 2])


def _central_95(values) -> tuple[float, float]:
    """The 2.5% and 97.5% points of ``values``, as ``np.percentile`` gives them.

    This is numpy's "linear" rule written out: np.percentile calls np.unique,
    which in numpy 2.x imports numpy.ma on first use, about 15 ms of a cold
    ``fit``.
    """
    v = np.sort(values)
    ends = []
    for q in (2.5, 97.5):
        index = (v.size - 1) * (q / 100)
        lo = int(index)
        a, b = v[lo], v[min(lo + 1, v.size - 1)]
        t = index - lo
        ends.append(float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)))
    return tuple(ends)
