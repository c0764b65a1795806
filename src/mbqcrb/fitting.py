"""Zeroth-order decay fitting: F(s) = A0 p^s + B0.

The decay parameter p carries the average gate fidelity (1 + p) / 2; A0 and
B0 absorb preparation and measurement imperfections. The fit minimizes the
weighted squared residuals over |A0| <= 1, 0 <= B0 <= 1 and 0 <= p <= 1.

A0 and B0 enter the model linearly, so the fit is a search in p alone
(variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)):
for a fixed p the best bounded (A0, B0) has a closed form. Each local minimum
of the profiled cost Q(p) on a coarse grid of p is refined by bisection on the
sign of dQ/dp down to machine epsilon, and the cheapest is kept. Nothing stops
at a tolerance or an iteration cap, so every fit is exact within its basin of
Q and meets the KKT conditions, with A0 or B0 on its bound or not. It is the
global minimum unless a basin of Q, say one narrower than a grid cell, holds
no local minimum of the grid.

Every row of a batch that shares its lengths is fitted from its own data
alone, so ``fit_decay`` (a batch of one) and ``bootstrap_ci`` (all its
resamples in one batch) give each row the same fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import MIN_RESAMPLES

_DEGENERATE_SPREAD = 1e-12
# The coarse grid of p: evenly spaced in log(p / (1 - p)) with step 1/2 from
# -20 to 20, and closed by 0 and 1. Near p = 1 the model's features scale
# with 1 - p, and near p = 0 with p; this resolves both to half their scale.
_GRID = np.concatenate([[0.0], 1.0 / (1.0 + np.exp(-np.arange(-20.0, 20.25, 0.5))), [1.0]])


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
    if not np.all(np.isfinite(s)) or np.any(s < 1.0):
        raise ValueError("sequence lengths must be finite and >= 1")
    if len(set(s.tolist())) < 3:
        raise ValueError("fitting requires at least 3 distinct sequence lengths")
    if not np.all(np.isfinite(y)) or np.any(y < -1e-12) or np.any(y > 1.0 + 1e-12):
        raise ValueError("sequence-fidelity means must be finite and lie in [0, 1]")


def _parse_points(points):
    lengths, means, errs = [], [], []
    for pt in points:
        s, mean, err = pt if len(pt) == 3 else (*pt, None)
        lengths.append(float(s))
        means.append(float(mean))
        errs.append(err)
    s, y = np.asarray(lengths), np.asarray(means)
    _check_points(s, y)
    if any(e is None or not 0.0 < e < np.inf for e in errs):
        w = np.ones_like(y)
    else:
        w = 1.0 / np.asarray(errs, dtype=float) ** 2
    order = np.argsort(s)
    return s[order], y[order], w[order]


def _candidates(u, y, w):
    """Five bounded (a0, b0) at each p, the best one among them, and their costs.

    ``u`` holds p^s; ``y`` and ``w`` (..., n) broadcast against it, and each
    result is (5, ...). At a fixed p the cost is a convex quadratic in (a0,
    b0), least at the point the weight-centred sums give. Where that leaves
    the box, the least cost in the box is one of the four edges' own
    least-squares points, clamped to its edge.
    """
    sw = w.sum(-1)
    yb = (w * y).sum(-1) / sw
    dy = y - yb[..., None]
    syy = (w * dy * dy).sum(-1)
    # u is centred on its plain mean c, so on a grid uc is shared by all rows
    c = u.sum(-1) / u.shape[-1]
    uc = u - c[..., None]
    s1 = (w * uc).sum(-1)
    ub = c + s1 / sw
    suu = (w * (uc * uc)).sum(-1) - s1 * s1 / sw
    suy = (w * dy * uc).sum(-1)
    suu0 = suu + sw * ub * ub  # the sum of w u^2
    # suu is 0 only where u is constant, and suu0 only where u is 0; the
    # numerators over them are then 0 too, and dividing by 1 gives a0 = 0
    den, den0 = suu + (suu == 0.0), suu0 + (suu0 == 0.0)
    one = np.ones_like(suu)
    # unconstrained, then the edges a0 = 1, a0 = -1, b0 = 0 and b0 = 1
    a = np.stack(
        [suy / den, one, -one, (suy + sw * ub * yb) / den0, (suy + sw * ub * (yb - 1.0)) / den0]
    ).clip(-1.0, 1.0)
    b = (yb - a * ub).clip(0.0, 1.0)
    b[3], b[4] = 0.0, 1.0
    cost = syy - 2.0 * a * suy + a * a * suu + sw * (a * ub + b - yb) ** 2
    return a, b, cost


def _profile(s, y, w, p):
    """The best bounded (a0, b0) of each row of y at its p (rows,), and whether Q rises there.

    By the envelope theorem dQ/dp = 2 a0 sum w r s p^(s-1) at the best (a0, b0).
    """
    v = p[:, None] ** (s - 1.0)
    u = v * p[:, None]
    a, b, cost = _candidates(u, y, w)
    a, b = (c[cost.argmin(axis=0), np.arange(len(p))] for c in (a, b))
    r = a[:, None] * u + b[:, None] - y
    return a, b, a * (w * r * s * v).sum(axis=1) > 0.0


def _cost(s, y, w, x):
    """The weighted squared residuals of each row of y at its (a0, b0, p) in x."""
    r = x[:, :1] * x[:, 2:] ** s + x[:, 1:2] - y
    return (w * r * r).sum(axis=1)


def _fit_rows(s, y, w):
    """Fit A0 p^s + B0 to every row of y by variable projection.

    ``s`` (n,) holds the lengths, sorted; ``y`` and ``w`` (rows, n) hold the
    means and the weights. Each local minimum of a row's profiled cost Q(p)
    on ``_GRID`` takes the grid cell on the side where Q falls (the lower one
    from p = 1, where a0 = 0 leaves dQ/dp at 0) and bisects it on the sign
    of dQ/dp, keeping Q rising at the upper end, until it is narrower than
    machine epsilon. The lower end, or the grid point if that costs less, is
    a local minimum of Q; the row takes the cheapest. A row whose means
    spread by less than 1e-12 is degenerate: A0 = 0, p = 1 and B0 its mean.

    Returns the parameters (rows, 3) as (a0, b0, p), the weighted costs, the
    bisection step counts and the degenerate mask.
    """
    # 16 rows at a time, since the grid's sums make (rows, grid, n) temporaries
    u, chunks = _GRID[:, None] ** s, range(0, len(y), 16)
    costs = np.vstack(
        [_candidates(u, y[k : k + 16, None], w[k : k + 16, None])[2].min(axis=0) for k in chunks]
    )
    padded = np.pad(costs, ((0, 0), (1, 1)), constant_values=np.inf)
    # the row and the grid point of each local minimum
    row, best = np.nonzero((costs < padded[:, :-2]) & (costs <= padded[:, 2:]))
    y, w, start = y[row], w[row], _GRID[best]
    a, b, lower = _profile(s, y, w, start)
    at_start = np.column_stack([a, b, start])
    lower |= best == _GRID.size - 1
    lo = np.where(lower, _GRID[np.maximum(best - 1, 0)], start)
    hi = np.where(lower, start, _GRID[np.minimum(best + 1, _GRID.size - 1)])
    degenerate = np.ptp(y, axis=1) < _DEGENERATE_SPREAD
    iterations = np.zeros(len(y), dtype=int)
    while (pending := (hi - lo > np.finfo(float).eps) & ~degenerate).any():
        iterations += pending
        p = (lo + hi) / 2.0
        rising = _profile(s, y, w, p)[2]
        hi = np.where(pending & rising, p, hi)
        lo = np.where(pending & ~rising, p, lo)
    x = np.column_stack([*_profile(s, y, w, lo)[:2], lo])
    cost, start_cost = _cost(s, y, w, x), _cost(s, y, w, at_start)
    x = np.where((start_cost < cost)[:, None], at_start, x)
    cost = np.minimum(cost, start_cost)
    # each row's cheapest minimum: the first of its row in cost order
    order = np.lexsort((cost, row))
    order = order[np.r_[True, row[order][1:] != row[order][:-1]]]
    x, y, w, iterations, degenerate = (v[order] for v in (x, y, w, iterations, degenerate))
    x[degenerate] = 0.0, 0.0, 1.0
    x[degenerate, 1] = y[degenerate].mean(axis=1)
    return x, _cost(s, y, w, x), iterations, degenerate


def fit_decay(points) -> DecayFit:
    """Weighted least-squares fit of A0 p^s + B0 to sequence-fidelity points.

    ``points`` holds (s, mean) or (s, mean, stderr) tuples; inverse-variance
    weights are used when every stderr is present, positive and finite.
    Parameters are constrained to |A0| <= 1, 0 <= B0 <= 1, 0 <= p <= 1.
    Constant data yields a degenerate fit flagged as such, with p pinned to 1.
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
