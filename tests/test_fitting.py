import dataclasses
import itertools
import pathlib

import numpy as np
import pytest
import yaml

from mbqcrb.cli import main
from mbqcrb.config import NoiseModel, RBConfig, SpamModel
from mbqcrb.engine import exact_sequence_fidelity, run_protocol
from mbqcrb.fitting import (
    _central_95,
    _fit_rows,
    _parse_points,
    _resample_points,
    bootstrap_ci,
    fidelity_from_p,
    fit_decay,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def model_points(a0, b0, p, lengths=range(1, 21)):
    return [(s, a0 * p**s + b0) for s in lengths]


class TestFidelityFromP:
    def test_endpoints(self):
        assert fidelity_from_p(1.0) == 1.0
        assert fidelity_from_p(0.0) == 0.5

    def test_typical(self):
        assert fidelity_from_p(0.96) == pytest.approx(0.98)

    def test_range_check(self):
        with pytest.raises(ValueError):
            fidelity_from_p(1.2)
        with pytest.raises(ValueError):
            fidelity_from_p(-0.1)


class TestFitDecay:
    def test_exact_recovery_headline(self):
        fit = fit_decay(model_points(0.5, 0.5, 0.98))
        assert abs(fit.a0 - 0.5) < 1e-9
        assert abs(fit.b0 - 0.5) < 1e-9
        assert abs(fit.p - 0.98) < 1e-9
        assert not fit.degenerate

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("a0", [0.3, 0.5])
    @pytest.mark.parametrize("b0", [0.4, 0.5])
    def test_exact_recovery_grid(self, p, a0, b0):
        fit = fit_decay(model_points(a0, b0, p))
        assert abs(fit.a0 - a0) < 1e-9
        assert abs(fit.b0 - b0) < 1e-9
        assert abs(fit.p - p) < 1e-9

    def test_oracle_generated_points(self):
        # enumerated protocol values, ideal SPAM: p recovered at 1e-6
        dep = NoiseModel(kind="depolarizing", strength=0.96)
        none = NoiseModel()
        pts = [
            (s, exact_sequence_fidelity("circuit", s, noise=dep, noise_inv=none).enumerated)
            for s in (1, 2, 3, 4)
        ]
        fit = fit_decay(pts)
        assert abs(fit.p - 0.96) < 1e-6
        assert fit.avg_fidelity == pytest.approx(0.98, abs=1e-6)

    def test_weighted_fit_uses_stderr(self):
        pts = [(s, 0.5 * 0.9**s + 0.5, 0.01) for s in range(1, 10)]
        fit = fit_decay(pts)
        assert abs(fit.p - 0.9) < 1e-9

    def test_degenerate_constant_data(self):
        fit = fit_decay([(s, 0.5) for s in range(1, 8)])
        assert fit.degenerate
        assert fit.p == 1.0
        assert fit.a0 == 0.0
        assert fit.b0 == pytest.approx(0.5)

    def test_noiseless_data_degenerate_at_one(self):
        fit = fit_decay([(s, 1.0) for s in (1, 5, 10)])
        assert fit.degenerate
        assert fit.p == 1.0

    def test_near_ideal_data_clamps(self):
        pts = [(s, 0.5 + 0.5 * (1 - 1e-13) ** s) for s in range(1, 10)]
        fit = fit_decay(pts)
        assert fit.clamped or fit.degenerate

    def test_insufficient_lengths(self):
        with pytest.raises(ValueError):
            fit_decay([(1, 0.9), (2, 0.8)])
        with pytest.raises(ValueError):
            fit_decay([(1, 0.9), (1, 0.91), (1, 0.89)])

    def test_rejects_out_of_range_means(self):
        with pytest.raises(ValueError):
            fit_decay([(1, 1.2), (2, 0.8), (3, 0.7)])

    @pytest.mark.parametrize(
        "points",
        [
            [(1, float("nan")), (2, 0.8), (3, 0.7)],
            [(1, 0.9), (2, float("inf")), (3, 0.7)],
            [(1, 0.9, 0.01), (2, float("-inf"), 0.01), (3, 0.7, 0.01)],
            [(-1, 0.95), (1, 0.8), (2, 0.7), (3, 0.65)],
            [(0, 0.95), (1, 0.8), (2, 0.7), (3, 0.65)],
            [(0.5, 0.95), (1, 0.8), (2, 0.7), (3, 0.65)],
            [(1, 0.8), (2, 0.7), (3, 0.65), (float("inf"), 0.5)],
            [(1, 0.8), (2, 0.7), (3, 0.65), (float("nan"), 0.5)],
        ],
        ids=[
            "nan-mean",
            "inf-mean",
            "weighted-inf-mean",
            "negative-length",
            "zero-length",
            "fractional-length-below-1",
            "inf-length",
            "nan-length",
        ],
    )
    def test_rejects_malformed_points(self, points):
        with pytest.raises(ValueError, match="finite"):
            fit_decay(points)

    @pytest.mark.parametrize(
        "points",
        [
            [(1, 0.9, 1e-100), (2, 0.8, 1e-100), (3, 0.7, 1e-100)],
            [(1, 0.9, 1e-200), (2, 0.8, 1e-200), (3, 0.7, 1e-200)],
            [(1, 0.9, 1e-80), (2, 0.8, 0.01), (3, 0.7, 0.01)],
        ],
        ids=["all-1e-100", "all-1e-200", "one-1e-80"],
    )
    def test_rejects_stderrs_whose_weights_overflow(self, points):
        with pytest.raises(ValueError, match="stderr 1e-[0-9]+ at length 1 is below"):
            fit_decay(points)

    def test_infinite_stderr_gives_unit_weights(self):
        inf = float("inf")
        points = [(1, 0.9), (2, 0.8), (3, 0.72), (4, 0.66)]
        fit = fit_decay([(s, m, inf if s == 2 else 0.01) for s, m in points])
        assert fit == fit_decay(points)

    def test_deterministic(self):
        pts = [(s, 0.4 * 0.93**s + 0.5 + 1e-3 * np.sin(s), 0.002) for s in range(1, 15)]
        a = fit_decay(pts)
        b = fit_decay(pts)
        assert a == b

    def test_reparameterization_identity(self):
        fit = fit_decay(model_points(0.5, 0.5, 0.93))
        assert fit.avg_fidelity == fidelity_from_p(fit.p)
        assert abs(2 * fit.avg_fidelity - 1 - fit.p) < 1e-15

    def test_rising_decay_negative_a0(self):
        fit = fit_decay(model_points(-0.3, 0.8, 0.9))
        assert abs(fit.a0 + 0.3) < 1e-9
        assert abs(fit.p - 0.9) < 1e-9


class TestSpamRobustness:
    def test_spam_moves_nuisance_parameters_only(self):
        dep = NoiseModel(kind="depolarizing", strength=0.96)
        none = NoiseModel()
        spam = SpamModel(prep_shrink=0.9, effect_bias=0.05)
        pts_ideal = [
            (s, exact_sequence_fidelity("clifford-mbqc", s, noise=dep, noise_inv=none).enumerated)
            for s in (1, 2, 3)
        ]
        pts_spam = [
            (
                s,
                exact_sequence_fidelity(
                    "clifford-mbqc", s, noise=dep, spam=spam, noise_inv=none
                ).enumerated,
            )
            for s in (1, 2, 3)
        ]
        fit_ideal = fit_decay(pts_ideal)
        fit_spam = fit_decay(pts_spam)
        assert abs(fit_ideal.p - fit_spam.p) < 1e-6
        assert abs(fit_ideal.a0 - fit_spam.a0) > 1e-3
        assert abs(fit_ideal.b0 - fit_spam.b0) > 1e-3


class FakeDataset:
    """Synthetic per-sequence survival fractions straight from the model."""

    def __init__(self, a0, b0, p, lengths, k, shots, rng):
        self._fractions = {}
        for s in lengths:
            prob = a0 * p**s + b0
            self._fractions[s] = rng.binomial(shots, prob, size=k) / shots

    def lengths(self):
        return tuple(sorted(self._fractions))

    def survival_fractions(self, s):
        return self._fractions[s]


class ConstantDataset:
    def __init__(self, lengths, k):
        self._lengths = tuple(lengths)
        self._k = k

    def lengths(self):
        return self._lengths

    def survival_fractions(self, s):
        return np.ones(self._k)


class TestBootstrapCI:
    def test_zero_noise_collapses(self):
        rng = np.random.default_rng(1)
        ci = bootstrap_ci(ConstantDataset((1, 2, 4), 10), 100, rng)
        assert ci == (1.0, 1.0)

    def test_minimum_resamples(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            bootstrap_ci(ConstantDataset((1, 2, 4), 10), 50, rng)

    def test_coverage_calibration(self):
        # nominal 95% interval should cover the true p in at least 90 of 100
        # independent synthetic experiments
        p_true = 0.9
        data_rng = np.random.default_rng(2024)
        boot_rng = np.random.default_rng(77)
        covered = 0
        for _ in range(100):
            ds = FakeDataset(0.5, 0.5, p_true, (1, 2, 4, 8, 16), k=30, shots=100, rng=data_rng)
            low, high = bootstrap_ci(ds, 100, boot_rng)
            if low - 1e-12 <= p_true <= high + 1e-12:
                covered += 1
        print(f"bootstrap coverage: {covered}/100")
        assert covered >= 90

    def test_width_shrinks_with_more_shots(self):
        data_rng = np.random.default_rng(5)
        boot_rng = np.random.default_rng(6)
        widths_small, widths_big = [], []
        for _ in range(20):
            small = FakeDataset(0.5, 0.5, 0.9, (1, 2, 4, 8), k=20, shots=50, rng=data_rng)
            big = FakeDataset(0.5, 0.5, 0.9, (1, 2, 4, 8), k=20, shots=100, rng=data_rng)
            lo, hi = bootstrap_ci(small, 100, boot_rng)
            widths_small.append(hi - lo)
            lo, hi = bootstrap_ci(big, 100, boot_rng)
            widths_big.append(hi - lo)
        assert np.mean(widths_big) < np.mean(widths_small)

    def test_interval_from_protocol_dataset(self):
        dep = NoiseModel(kind="depolarizing", strength=0.9)
        cfg = RBConfig(
            protocol="clifford-mbqc",
            lengths=(1, 2, 4, 8),
            sequences_per_length=25,
            shots_per_sequence=50,
            noise=dep,
            noise_inv=NoiseModel(),
            seed=61,
        )
        ds = run_protocol(cfg)
        rng = np.random.default_rng(9)
        low, high = bootstrap_ci(ds, 200, rng)
        assert low <= 0.9 <= high
        assert high - low < 0.2

    def test_interval_equals_numpy_percentile(self):
        # every size from 100 to 1000, with distinct values, ties and all equal
        rng = np.random.default_rng(11)
        for n in range(100, 1001):
            kind = n % 3
            if kind == 0:
                p = rng.random(n)
            elif kind == 1:
                p = rng.choice(rng.random(5), size=n)
            else:
                p = np.full(n, rng.random())
            assert _central_95(p) == tuple(np.percentile(p, [2.5, 97.5]))

    def test_bootstrap_interval_is_the_percentile_of_the_fits(self):
        dataset = bound_active_dataset()
        for resamples in (100, 137, 200):
            x, _, _, _ = _fit_rows(*_resample_points(dataset, resamples, np.random.default_rng(4)))
            expected = tuple(np.percentile(x[:, 2], [2.5, 97.5]))
            assert bootstrap_ci(dataset, resamples, np.random.default_rng(4)) == expected


class ArrayDataset:
    """Per-sequence survival fractions given length by length."""

    def __init__(self, fractions):
        self._fractions = {s: np.asarray(f, dtype=float) for s, f in fractions.items()}

    def lengths(self):
        return tuple(sorted(self._fractions))

    def survival_fractions(self, s):
        return self._fractions[s]


class CountingRng:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


def resample_loop(dataset, resamples, rng):
    """Reference for the bootstrap's draws: one resample and one length at a time."""
    rows = []
    for _ in range(resamples):
        points = []
        for s in dataset.lengths():
            f = dataset.survival_fractions(s)
            sample = f[rng.integers(0, f.size, size=f.size)]
            if sample.size > 1:
                stderr = float(sample.std(ddof=1) / np.sqrt(sample.size))
            else:
                stderr = 0.0
            points.append((s, float(sample.mean()), stderr))
        rows.append(points)
    return rows


def bound_active_dataset():
    """The first small dataset of test_width_shrinks_with_more_shots."""
    return FakeDataset(0.5, 0.5, 0.9, (1, 2, 4, 8), k=20, shots=50, rng=np.random.default_rng(5))


# Resamples of these share the lengths 1, 2, 4, 8. In "mixed-weights" about
# half the resamples draw the one sequence at s = 1 twice, so that row has a
# zero standard error and unit weights while the others stay weighted.
# Resamples of "mostly-ideal" that miss its 0.9 are constant (degenerate).
# Several resamples of "rising-tail" have their least cost just below p = 1,
# with A0 < 0, and a cost almost as low on p = 1, where a fit can stop.
BATCH_DATASETS = {
    "mixed-weights": ArrayDataset(
        {
            1: [0.96, 0.98],
            2: [0.9, 0.94, 0.86, 0.96, 0.88, 0.92],
            4: [0.84, 0.78, 0.86, 0.8, 0.9],
            8: [0.68, 0.72, 0.76, 0.7, 0.8],
        }
    ),
    "mostly-ideal": ArrayDataset(
        {1: [1.0, 1.0, 1.0], 2: [1.0, 1.0, 1.0], 4: [1.0, 1.0, 1.0], 8: [1.0, 1.0, 0.9]}
    ),
    "rising-tail": ArrayDataset(
        {1: [0.9, 0.6], 2: [0.6, 0.61], 4: [0.6, 0.59], 8: [0.6, 0.61]}
    ),
}


class TestRecordedResults:
    """Fit results of the example configs and of a bound-active bootstrap.

    p and ci_p were recorded with the scalar Gauss-Newton loop of the first
    releases; the exact fit reproduces them within 1e-9. a0 and b0 were
    re-recorded with the exact fit: the loop's step-size stop left the
    Clifford example's a0 and b0 1.5e-9 away at equal cost. The bound-active
    interval was re-recorded too, because the loop stopped 23 of its 100
    resamples at the iteration cap.
    """

    # a0, b0, p and ci_p of `fit --resamples 200` on the `run` dataset of each
    # example config
    FITS = {
        "clifford_example": (
            0.49975255015452313,
            0.5005925420574389,
            0.9602480442435853,
            (0.954860005576762, 0.9658493196390763),
        ),
        "derandomized_example": (
            0.517700369167277,
            0.48099400721671354,
            0.9617012373210265,
            (0.9547735667319789, 0.9683069300043858),
        ),
    }
    # bootstrap_ci(bound_active_dataset(), 100, default_rng(6))
    BOUND_ACTIVE_CI = (0.8009230720584247, 0.9594517069473393)

    @pytest.mark.parametrize("name", sorted(FITS))
    def test_example_fit_reports(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        config = str(CONFIGS / f"{name}.yaml")
        assert main(["--quiet", "run", "--config", config, "--out", str(out)]) == 0
        assert main(["--quiet", "fit", str(out), "--resamples", "200"]) == 0
        with open(f"{out}.fit.yaml") as fh:
            report = yaml.safe_load(fh)
        a0, b0, p, ci = self.FITS[name]
        got = [report["a0"], report["b0"], report["p"], *report["ci_p"]]
        np.testing.assert_allclose(got, [a0, b0, p, *ci], rtol=0, atol=1e-9)

    def test_bound_active_bootstrap(self):
        dataset = bound_active_dataset()
        x, _, _, _ = _fit_rows(*_resample_points(dataset, 100, np.random.default_rng(6)))
        assert np.any((x[:, 0] == 1.0) | (x[:, 1] == 0.0))
        ci = bootstrap_ci(dataset, 100, np.random.default_rng(6))
        np.testing.assert_allclose(ci, self.BOUND_ACTIVE_CI, rtol=0, atol=1e-9)


class TestRowsIndependentOfBatch:
    def _check_rows_alone(self, datasets, resamples, make_rng=np.random.default_rng):
        """Fit the resamples of every dataset in one batch, then each alone.

        ``make_rng`` builds each dataset's generator from its position."""
        lengths, ys, ws, points = None, [], [], []
        for seed, dataset in enumerate(datasets):
            s, y, w = _resample_points(dataset, resamples, make_rng(seed))
            rows = resample_loop(dataset, resamples, make_rng(seed))
            for k, row in enumerate(rows):
                # the same draws, means, standard errors and weights
                ref_s, ref_y, ref_w = _parse_points(row)
                assert np.array_equal(ref_s, s)
                assert np.array_equal(ref_y, y[k]) and np.array_equal(ref_w, w[k])
            assert lengths is None or np.array_equal(lengths, s)
            lengths = s
            ys.append(y)
            ws.append(w)
            points.extend(rows)
        y, w = np.vstack(ys), np.vstack(ws)
        x, cost, iterations, degenerate = _fit_rows(lengths, y, w)
        for k, row in enumerate(points):
            fit = fit_decay(row)
            np.testing.assert_allclose([fit.a0, fit.b0, fit.p], x[k], rtol=0, atol=1e-12)
            assert fit.residual_norm == pytest.approx(np.sqrt(cost[k]), rel=1e-12)
            assert fit.iterations == iterations[k]
            assert fit.degenerate == degenerate[k]
        return x, cost, y, w, degenerate

    def test_rows_fitted_alone_equal_the_batch(self):
        datasets = [bound_active_dataset(), *BATCH_DATASETS.values()]
        x, cost, y, w, degenerate = self._check_rows_alone(datasets, 20)
        a0, b0, p = x.T
        assert degenerate.any() and np.all(p[degenerate] == 1.0)
        unit = np.all(w == 1.0, axis=1)
        assert np.any(unit & ~degenerate) and np.any(~unit)
        assert np.any((a0 == 1.0) | (b0 == 0.0))
        # On p = 1 the model is the constant a0 + b0, at best the weighted
        # mean. Rows with their least cost just below p = 1, some with a0 < 0,
        # must end cheaper than that, not on the bound
        near_one = (p > 0.99) & ~degenerate
        assert np.any(near_one & (a0 < 0.0))
        y, w = y[near_one], w[near_one]
        mean = (w * y).sum(axis=1) / w.sum(axis=1)
        assert np.all(cost[near_one] < (w * (y - mean[:, None]) ** 2).sum(axis=1))

    def test_missing_row_and_single_sequence_length(self):
        config = RBConfig(
            protocol="clifford-mbqc",
            lengths=(1, 2, 4, 8),
            sequences_per_length=6,
            shots_per_sequence=50,
            noise=NoiseModel(kind="depolarizing", strength=0.9),
            noise_inv=NoiseModel(),
            seed=17,
        )
        full = run_protocol(config)
        records = tuple(
            r for r in full.records if not (r.s == 2 and r.index == 3) and (r.s != 8 or r.index == 0)
        )
        dataset = dataclasses.replace(full, records=records)
        assert [dataset.survival_fractions(s).size for s in dataset.lengths()] == [6, 5, 6, 1]
        _, _, _, w, _ = self._check_rows_alone([dataset], 30)
        assert np.all(w == 1.0)
        low, high = bootstrap_ci(dataset, 100, np.random.default_rng(3))
        assert 0.0 <= low <= high <= 1.0

    @pytest.mark.parametrize(
        "counts", [(5, 5, 3, 3, 5), (4, 4, 4), (1, 1, 2, 2), (3, 7, 7, 7)], ids=str
    )
    def test_runs_of_equal_counts_share_one_draw(self, counts):
        # one rng.integers call per run of consecutive lengths with the same
        # count draws what one call per length would, on the default PCG64
        # and on the Philox generator that the fit command seeds
        rng = np.random.default_rng(sum(counts))
        dataset = ArrayDataset(
            {2**j: 0.5 + 0.45 * 0.9 ** 2**j + 0.05 * rng.random(k) for j, k in enumerate(counts)}
        )
        self._check_rows_alone([dataset], 25)
        self._check_rows_alone([dataset], 25, lambda seed: np.random.Generator(np.random.Philox(seed)))
        rng = CountingRng(np.random.default_rng(0))
        _resample_points(dataset, 25, rng)
        assert rng.calls == 25 * len(list(itertools.groupby(counts)))


def relative_projected_gradient(x, s, y, w):
    """The gradient of the weighted cost in (a0, b0, p), projected on the box.

    A coordinate on a bound keeps only the part of its gradient that points
    into the box, so a fit that meets the KKT conditions gives zero in every
    coordinate. Each is relative to its Cauchy-Schwarz bound,
    2 sqrt(cost) sqrt(sum w (dr/dtheta)^2), so 1 is the largest possible.
    """
    a0, b0, p = (v[:, None] for v in x.T)
    r = a0 * p**s + b0 - y
    jac = np.stack(np.broadcast_arrays(p**s, 1.0, a0 * s * p ** (s - 1)))
    grad = 2.0 * (w * r * jac).sum(axis=2).T
    bound = 2.0 * np.sqrt((w * r * r).sum(axis=1)[:, None] * (w * jac * jac).sum(axis=2).T)
    grad = np.where(x == [-1.0, 0.0, 0.0], np.minimum(grad, 0.0), grad)
    grad = np.where(x == [1.0, 1.0, 1.0], np.maximum(grad, 0.0), grad)
    return np.abs(grad) / np.where(bound > 0.0, bound, 1.0)


def profiled_grid_minimum(s, y, w, grid):
    """The least weighted cost of each row over p in ``grid``, with (a0, b0) in the box.

    At each p it tries the (a0, b0) of the normal equations when they lie in
    the box, and on each edge of the box the edge's least-squares point
    clamped to it; each cost is summed from the residuals.
    """
    u = grid[:, None] ** s
    least = []
    for yr, wr in zip(y, w):
        suu, su, sw = (wr * u * u).sum(axis=1), (wr * u).sum(axis=1), wr.sum()
        suy, sy = (wr * u * yr).sum(axis=1), (wr * yr).sum()
        det = suu * sw - su * su
        solvable = det > 0.0
        det = np.where(solvable, det, 1.0)
        candidates = [
            (np.where(solvable, (suy * sw - su * sy) / det, np.nan), (suu * sy - su * suy) / det)
        ]
        for a in (-1.0, 1.0):
            candidates.append((np.full_like(su, a), np.clip((sy - a * su) / sw, 0.0, 1.0)))
        for b in (0.0, 1.0):
            a = (suy - b * su) / np.where(suu > 0.0, suu, 1.0)
            candidates.append((np.clip(a, -1.0, 1.0), np.full_like(su, b)))
        costs = []
        for a, b in candidates:
            r = a[:, None] * u + b[:, None] - yr
            inside = (np.abs(a) <= 1.0) & (b >= 0.0) & (b <= 1.0)
            costs.append(np.where(inside, (wr * r * r).sum(axis=1), np.inf))
        least.append(np.min(costs))
    return np.array(least)


class TestOptimality:
    """Every non-degenerate bootstrap fit is a minimum of the bounded problem."""

    # dataset, resamples and rng seed of each case
    CASES = {
        "bound-active": (bound_active_dataset(), 100, 6),
        **{name: (d, 200, seed) for seed, (name, d) in enumerate(BATCH_DATASETS.items())},
    }

    @pytest.fixture(params=sorted(CASES), scope="class")
    def fitted(self, request):
        dataset, resamples, seed = self.CASES[request.param]
        s, y, w = _resample_points(dataset, resamples, np.random.default_rng(seed))
        x, cost, _, degenerate = _fit_rows(s, y, w)
        keep = ~degenerate
        return s, y[keep], w[keep], x[keep], cost[keep]

    def test_kkt_conditions_hold(self, fitted):
        s, y, w, x, _ = fitted
        assert len(x) > 0
        assert relative_projected_gradient(x, s, y, w).max() < 1e-9

    def test_cost_is_below_the_profile_on_a_fine_grid(self, fitted):
        s, y, w, _, cost = fitted
        least = profiled_grid_minimum(s, y, w, np.linspace(0.0, 1.0, 2001))
        assert np.all(cost <= (1.0 + 1e-10) * least)

    # Weighted rows whose profiled cost has two basins, and whose cheapest
    # grid point lies in the dearer one: a fit that refines only that grid
    # point ends 0.3% (first) and 2.6% (second) above the least cost
    TWO_BASINS = {
        "lengths-to-512": (
            2.0 ** np.arange(10),
            [0.5227817786702811, 0.7498276461338564, 0.35564640019886706, 0.6272800948623702,
             0.5126752731946783, 0.32698109729793057, 0.45354967509762123, 0.5153237249350605,
             0.4118705979202604, 0.43366645944268056],
            [6734.073369475872, 714.2341335283965, 33809.34052362108, 712.9978221484089,
             481.5650085852383, 31781.281892230552, 40781.15758656555, 6400.491635807398,
             3128.868745927374, 28465.116230933483],
        ),
        "lengths-to-1000": (
            np.array([1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0]),
            [0.8944052061241541, 0.7551961001856468, 0.7412424291755997, 0.7664815203957798,
             0.7234424629108981, 0.7404321825233593, 0.7455079664628292],
            [1763.8303232484507, 822.9878690305857, 1044.6170985402218, 107177.98599859311,
             8345.89466721878, 1790.3968329015868, 1622.4168266743118],
        ),
    }

    @pytest.mark.parametrize("name", sorted(TWO_BASINS))
    def test_takes_the_cheaper_basin(self, name):
        s, y, w = self.TWO_BASINS[name]
        y, w = np.array([y]), np.array([w])
        x, cost, _, _ = _fit_rows(s, y, w)
        assert relative_projected_gradient(x, s, y, w).max() < 1e-9
        least = profiled_grid_minimum(s, y, w, np.linspace(0.0, 1.0, 20001))
        assert cost[0] <= (1.0 + 1e-10) * least[0]
