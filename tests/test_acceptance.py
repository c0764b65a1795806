"""Acceptance suite: one check per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time

import numpy as np

from mbqcrb.channels import (
    I2,
    avg_gate_fidelity,
    frame_potential,
    plus_state,
    random_cptp_channel,
    twirl,
)
from mbqcrb.config import InstrumentConfig, NoiseModel, RBConfig, SpamModel
from mbqcrb.engine import (
    exact_sequence_fidelity,
    run_protocol,
    sequence_fidelity_estimate,
)
from mbqcrb.fitting import fit_decay
from mbqcrb.gatesets import (
    clifford_group,
    derandomized_design,
    outcome_index,
    verify_angle_table,
)
from mbqcrb.verify import verify_byproduct_bits, verify_design_reference
from mbqcrb.wire import WireRun, measure_step, run_gate_block


def report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_angle_table():
    """All 24 angle triples reproduce their Clifford element, in under 1 s."""
    start = time.perf_counter()
    deviations = verify_angle_table()
    elapsed = time.perf_counter() - start
    worst = max(deviations.values())
    assert len(deviations) == 24
    assert worst < 1e-10
    assert elapsed < 1.0
    report(1, f"24/24 rows, max deviation {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_design_reference_matrices():
    """Computed flips and all-zeros gate match the printed matrices."""
    deviations = verify_design_reference()
    worst = max(deviations.values())
    assert worst < 1e-10
    design = derandomized_design(0.0, 0.0)
    for i, a in enumerate(design.a, start=1):
        m = a.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-10, f"A{i} unitary"
        assert np.max(np.abs(m - m.conj().T)) < 1e-10, f"A{i} hermitian"
        assert abs(np.trace(m)) < 1e-10, f"A{i} traceless"
    report(2, f"A1..A5 and Q match within {worst:.2e}; flips are pi rotations")


def test_criterion_3_two_design_certification():
    """Frame potentials at the Haar value; twirls over both sets depolarize."""
    rng = np.random.default_rng(160811)
    clifford = [e.unitary for e in clifford_group()]
    design = list(derandomized_design().elements)
    fp_c = frame_potential(clifford, 2)
    fp_d = frame_potential(design, 2)
    assert abs(fp_c - 2.0) < 1e-9
    assert abs(fp_d - 2.0) < 1e-9
    worst_off = 0.0
    worst_fid = 0.0
    for gateset in (clifford, design):
        for _ in range(20):
            ch = random_cptp_channel(rng, kraus_rank=2)
            tw = twirl(ch, gateset).ptm
            p = float(np.trace(tw[1:, 1:]) / 3.0)
            off = float(np.max(np.abs(tw - np.diag([1.0, p, p, p]))))
            fid_gap = abs((1 + p) / 2 - avg_gate_fidelity(ch, I2))
            worst_off = max(worst_off, off)
            worst_fid = max(worst_fid, fid_gap)
    assert worst_off < 1e-9
    assert worst_fid < 1e-9
    report(
        3,
        f"frame potentials {fp_c:.12f}/{fp_d:.12f}; 40 twirls: "
        f"off-target <= {worst_off:.2e}, fidelity gap <= {worst_fid:.2e}",
    )


def test_criterion_4_byproduct_formulas():
    """All 512 quarter-turn/outcome combinations match the matrix oracle."""
    worst = verify_byproduct_bits()
    assert worst < 1e-10
    report(4, f"512/512 combinations, max deviation {worst:.2e}")


def test_criterion_5_exact_oracle_consistency():
    """Enumeration equals 0.5 p^s + 0.5 for both wire protocols, s <= 3."""
    p = 0.9
    dep = NoiseModel(kind="depolarizing", strength=p)
    none = NoiseModel()
    worst = 0.0
    for protocol in ("clifford-mbqc", "derandomized-mbqc"):
        for s in (1, 2, 3):
            ex = exact_sequence_fidelity(protocol, s, noise=dep, noise_inv=none)
            closed = 0.5 * p**s + 0.5
            worst = max(worst, abs(ex.enumerated - closed), abs(ex.enumerated - ex.analytic))
    assert worst < 1e-9
    report(5, f"both protocols, s = 1..3: max |enumeration - closed form| = {worst:.2e}")


def test_criterion_6_end_to_end_fidelity_recovery():
    """Sampled experiments at p_true = 0.96 recover 0.98 within 0.01, < 60 s."""
    dep = NoiseModel(kind="depolarizing", strength=0.96)
    start = time.perf_counter()
    results = {}
    for protocol, seed in (("clifford-mbqc", 2016), ("derandomized-mbqc", 811)):
        cfg = RBConfig(
            protocol=protocol,
            lengths=tuple(range(1, 21)),
            sequences_per_length=50,
            shots_per_sequence=200,
            noise=dep,
            seed=seed,
        )
        ds = run_protocol(cfg)
        points = [(s, *sequence_fidelity_estimate(ds, s)) for s in cfg.lengths]
        fit = fit_decay(points)
        results[protocol] = fit.avg_fidelity
        assert abs(fit.avg_fidelity - 0.98) < 0.01, (protocol, fit.avg_fidelity)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        6,
        "avg_fidelity "
        + ", ".join(f"{k} = {v:.5f}" for k, v in results.items())
        + f" (target 0.98 +- 0.01), {elapsed:.1f} s",
    )


def test_criterion_7_spam_insensitivity():
    """SPAM degradation moves A0 and B0 but not the decay parameter."""
    dep = NoiseModel(kind="depolarizing", strength=0.96)
    none = NoiseModel()
    spam = SpamModel(prep_shrink=0.9, effect_bias=0.05)
    lengths = (1, 2, 3)

    def exact_points(spam_model):
        return [
            (
                s,
                exact_sequence_fidelity(
                    "clifford-mbqc", s, noise=dep, spam=spam_model, noise_inv=none
                ).enumerated,
            )
            for s in lengths
        ]

    ideal_fit = fit_decay(exact_points(None))
    spam_fit = fit_decay(exact_points(spam))
    dp = abs(ideal_fit.p - spam_fit.p)
    da = abs(ideal_fit.a0 - spam_fit.a0)
    db = abs(ideal_fit.b0 - spam_fit.b0)
    assert dp < 1e-6
    assert da > 1e-3
    assert db > 1e-3
    report(7, f"|dp| = {dp:.2e} < 1e-6 while |dA0| = {da:.4f}, |dB0| = {db:.4f}")


def test_criterion_8_randomness_injection():
    """Injection at bias 0.1: fair effective outcomes, uniform realized elements."""
    instrument = InstrumentConfig(bias=0.1, inject_randomness=True)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20160811)))

    n_steps = 100_000
    run = WireRun(state=plus_state())
    for _ in range(n_steps):
        measure_step(run, 0.3, instrument=instrument, rng=rng)
    ones = sum(run.outcomes)
    sigma_b = np.sqrt(n_steps * 0.25)
    assert abs(ones - n_steps / 2) < 3 * sigma_b

    n_blocks = 100_000
    angles = derandomized_design().angles
    counts = np.zeros(32, dtype=np.int64)
    for _ in range(n_blocks):
        run = WireRun(state=plus_state())
        _, outcomes = run_gate_block(run, angles, instrument=instrument, rng=rng)
        counts[outcome_index(outcomes)] += 1
    sigma_e = np.sqrt(n_blocks * (1 / 32) * (31 / 32))
    worst_pull = float(np.max(np.abs(counts - n_blocks / 32)) / sigma_e)
    assert worst_pull < 3.0
    report(
        8,
        f"outcome-1 rate {ones / n_steps:.4f} (fair within 3 sigma); "
        f"32 realized elements, worst bin at {worst_pull:.2f} sigma",
    )


def test_criterion_9_monte_carlo_versus_exact():
    """Sampled estimates sit within 3 sigma of the enumerated values."""
    dep = NoiseModel(kind="depolarizing", strength=0.96)
    worst = 0.0
    for protocol, seed in (("clifford-mbqc", 5), ("derandomized-mbqc", 5)):
        cfg = RBConfig(
            protocol=protocol,
            lengths=(1, 2, 3),
            sequences_per_length=200,
            shots_per_sequence=200,
            noise=dep,
            seed=seed,
        )
        ds = run_protocol(cfg)
        for s in (1, 2, 3):
            mean, stderr = sequence_fidelity_estimate(ds, s)
            exact = exact_sequence_fidelity(protocol, s, noise=dep).enumerated
            sigma = max(stderr, np.sqrt(exact * (1 - exact) / (200 * 200)))
            pull = abs(mean - exact) / sigma
            worst = max(worst, pull)
            assert pull < 3.0, (protocol, s, pull)
    report(9, f"both protocols, s = 1..3: worst pull {worst:.2f} sigma")
