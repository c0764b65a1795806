import dataclasses
import pathlib

import numpy as np
import pytest
import yaml

from mbqcrb.cli import main
from mbqcrb.engine import RBConfig, SpamModel, exact_sequence_fidelity, run_protocol
from mbqcrb.fitting import (
    _fit_rows,
    _parse_points,
    _resample_points,
    _solve_rows,
    bootstrap_ci,
    fidelity_from_p,
    fit_decay,
)
from mbqcrb.wire import NoiseModel

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


class ArrayDataset:
    """Per-sequence survival fractions given length by length."""

    def __init__(self, fractions):
        self._fractions = {s: np.asarray(f, dtype=float) for s, f in fractions.items()}

    def lengths(self):
        return tuple(sorted(self._fractions))

    def survival_fractions(self, s):
        return self._fractions[s]


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
# Resamples of "mostly-ideal" that miss its 0.9 are constant (degenerate),
# and several resamples of "rising-tail" end with p on its upper bound.
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
    """Values recorded with the scalar Gauss-Newton loop that the batched solver replaced."""

    # a0, b0, p and ci_p of `fit --resamples 200` on the `run` dataset of each
    # example config
    FITS = {
        "clifford_example": (
            0.49975254866133306,
            0.5005925436049179,
            0.9602480442435853,
            (0.954860005576762, 0.9658493196390763),
        ),
        "derandomized_example": (
            0.5177003691672791,
            0.4809940072167114,
            0.9617012373210265,
            (0.9547735667319789, 0.9683069300043858),
        ),
    }
    # bootstrap_ci(bound_active_dataset(), 100, default_rng(6))
    BOUND_ACTIVE_CI = (0.8009230720720187, 0.95945144139503)

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
        x, _, iterations, _ = _fit_rows(*_resample_points(dataset, 100, np.random.default_rng(6)))
        assert np.any((x[:, 0] == 1.0) | (x[:, 1] == 0.0))
        assert np.any(iterations == 500)
        ci = bootstrap_ci(dataset, 100, np.random.default_rng(6))
        np.testing.assert_allclose(ci, self.BOUND_ACTIVE_CI, rtol=0, atol=1e-9)


class TestRowsIndependentOfBatch:
    def _check_rows_alone(self, datasets, resamples):
        """Fit the resamples of every dataset in one batch, then each alone."""
        lengths, ys, ws, points = None, [], [], []
        for seed, dataset in enumerate(datasets):
            s, y, w = _resample_points(dataset, resamples, np.random.default_rng(seed))
            rows = resample_loop(dataset, resamples, np.random.default_rng(seed))
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
        return x, w, iterations, degenerate

    def test_rows_fitted_alone_equal_the_batch(self):
        datasets = [bound_active_dataset(), *BATCH_DATASETS.values()]
        x, w, iterations, degenerate = self._check_rows_alone(datasets, 20)
        a0, b0, p = x.T
        assert degenerate.any() and np.all(p[degenerate] == 1.0)
        unit = np.all(w == 1.0, axis=1)
        assert np.any(unit & ~degenerate) and np.any(~unit)
        assert np.any((p >= 1.0 - 1e-12) & ~degenerate)
        assert np.any(((a0 == 1.0) | (b0 == 0.0)) & (iterations == 500))

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
        _, w, _, _ = self._check_rows_alone([dataset], 30)
        assert np.all(w == 1.0)
        low, high = bootstrap_ci(dataset, 100, np.random.default_rng(3))
        assert 0.0 <= low <= high <= 1.0


class TestSolveRows:
    def test_singular_row_gets_nan(self):
        a = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.diag([1.0, 4.0, 5.0])])
        b = np.ones((3, 3))
        d = _solve_rows(a, b)
        assert np.all(np.isnan(d[1]))
        np.testing.assert_array_equal(d[0], np.linalg.solve(a[0], b[0]))
        np.testing.assert_array_equal(d[2], np.linalg.solve(a[2], b[2]))
