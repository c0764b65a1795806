"""Traced in-process run: spans around calls into each mbqcrb module.

One traced pass runs the in-process equivalent of every workload's stage
(config load, run, dataset write and read, fit, bootstrap; verify and the
oracle ladder), plus probes that time single layers: one ``run_protocol``
per length, the Clifford-frame and index lookups, frame potential and
twirl. Per-layer metrics are medians over passes; span records stay in
memory and are written out with the result.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import benchlib
import workloads as wl

LOOKUP_REPEATS = 20
CHANNEL_REPEATS = 20
TWIRL_SEED = 20161


def _first_calls(tr: benchlib.Tracer) -> dict:
    """Import the program and time the first calls that every process pays."""
    from mbqcrb import fitting, gatesets

    with tr.span("gatesets.clifford_group") as group:
        gatesets.clifford_group()
    with tr.span("gatesets.derandomized_design") as design:
        gatesets.derandomized_design()
    # Untimed: loads numpy's lazily imported linear-algebra code, so the
    # first traced fit costs what every later one does.
    fitting.fit_decay([(1, 0.9), (2, 0.82), (3, 0.76), (4, 0.7)])
    return {
        "gatesets.clifford_group_ms": 1e3 * benchlib.duration(group),
        "gatesets.derandomized_design_ms": 1e3 * benchlib.duration(design),
    }


def _sampling_stage(tr, experiment, config_path, passdir, m):
    import numpy as np
    from mbqcrb import cli, engine, fitting

    with tr.span("stage." + experiment) as stage:
        with tr.span("cli.load_config"):
            rb = cli.load_config(config_path).rb
        with tr.span("engine.run_protocol") as run:
            dataset = engine.run_protocol(rb)
        path = os.path.join(passdir, experiment + ".csv")
        with tr.span("cli.write_dataset") as write:
            cli.write_dataset(dataset, path)
        with tr.span("cli.read_dataset") as read:
            back = cli.read_dataset(path)
        points = []
        for s in back.lengths():
            with tr.span("engine.sequence_fidelity_estimate"):
                points.append((s, *engine.sequence_fidelity_estimate(back, s)))
        with tr.span("fitting.fit_decay") as fit_span:
            fit = fitting.fit_decay(points)
        rng = np.random.default_rng(rb.seed)
        with tr.span("fitting.bootstrap_ci") as boot:
            fitting.bootstrap_ci(back, wl.RESAMPLES, rng)

    items = len(dataset.records)
    gates = sum(r.s for r in dataset.records)
    m[f"engine.run_protocol_s.{experiment}"] = benchlib.duration(run)
    m[f"engine.items.{experiment}"] = items
    m[f"engine.shots.{experiment}"] = items * rb.shots_per_sequence
    m[f"engine.gates.{experiment}"] = gates
    m[f"fitting.fit_decay_ms.{experiment}"] = 1e3 * benchlib.duration(fit_span)
    m[f"fitting.fit_iterations.{experiment}"] = fit.iterations
    if experiment == "derand-shots":
        m["engine.shot_gate_ns"] = 1e9 * benchlib.duration(run) / (gates * rb.shots_per_sequence)
    else:
        m["engine.sequence_fidelity_estimate_ms"] = _mean_ms(
            tr.spans[stage["id"]:], "engine.sequence_fidelity_estimate"
        )
        m["fitting.bootstrap_ms_per_resample"] = 1e3 * benchlib.duration(boot) / wl.RESAMPLES
        m["cli.write_dataset_ms"] = 1e3 * benchlib.duration(write)
        m["cli.read_dataset_ms"] = 1e3 * benchlib.duration(read)
        m["cli.dataset_bytes"] = os.path.getsize(path)
    return rb, dataset, benchlib.duration(stage)


def _per_length(tr, rb, full, ops, m):
    """One run_protocol per length: the per-item cost against s.

    Records depend only on (seed, s, index), so the per-length records
    joined in order must equal the full run's records.
    """
    from mbqcrb import engine

    per_item_ms, joined = [], []
    with tr.span("probe.per-length"):
        for s in rb.lengths:
            with tr.span("engine.run_protocol", s=s) as run:
                part = engine.run_protocol(replace(rb, lengths=(s,)))
            joined.extend(part.records)
            per_item_ms.append(1e3 * benchlib.duration(run) / rb.sequences_per_length)
    ops.check(
        tuple(joined) == full.records,
        "clifford-items: per-length run_protocol records differ from the full run",
    )
    fixed, per_gate = benchlib.line_fit(rb.lengths, per_item_ms)
    m["engine.item_fixed_ms"] = fixed
    m["engine.item_per_gate_ms"] = per_gate


def _oracle_stage(tr, configs, m) -> tuple[dict, float]:
    from mbqcrb import cli, engine, gatesets

    def clifford_2design():
        return gatesets.verify_2design([e.unitary for e in gatesets.clifford_group()], cli.DESIGN_TOL)

    def derandomized_2design():
        return gatesets.verify_2design(list(gatesets.derandomized_design().elements), cli.DESIGN_TOL)

    verify_checks = [
        ("verify_angle_table_ms", "verify_angle_table",
         lambda: gatesets.verify_angle_table(dict(gatesets.CLIFFORD_ANGLE_TABLE))),
        ("verify_design_reference_ms", "verify_design_reference", gatesets.verify_design_reference),
        ("verify_2design_ms.clifford", "verify_2design", clifford_2design),
        ("verify_2design_ms.derandomized", "verify_2design", derandomized_2design),
        ("verify_byproduct_bits_ms", "verify_byproduct_bits", gatesets.verify_byproduct_bits),
    ]
    values = {}
    with tr.span("stage.oracle-ladder") as stage:
        for metric, name, call in verify_checks:
            with tr.span("gatesets." + name) as sp:
                call()
            m["gatesets." + metric] = 1e3 * benchlib.duration(sp)
        rbs = {}
        for variant, path in configs.items():
            with tr.span("cli.load_config"):
                rbs[variant] = cli.load_config(path).rb
        for variant, s in wl.oracle_rungs():
            rb = rbs[variant]
            with tr.span("engine.exact_sequence_fidelity", variant=variant, s=s) as sp:
                exact = engine.exact_sequence_fidelity(
                    rb.protocol, s, noise=rb.noise, spam=rb.spam, noise_inv=rb.noise_inv,
                    bias=rb.instrument.bias, clifford_mode=rb.clifford_mode,
                    design_phis=rb.design_phis,
                )
            values[f"{variant}.s{s}"] = exact.enumerated
            m[f"engine.exact_sequence_fidelity_ms.{variant}.s{s}"] = 1e3 * benchlib.duration(sp)
    return values, benchlib.duration(stage)


def _mean_ms(spans, name) -> float:
    times = [benchlib.duration(s) for s in spans if s["name"] == name]
    return 1e3 * sum(times) / len(times)


def _layer_probes(tr, m):
    import numpy as np
    from mbqcrb import channels, gatesets, wire

    group = gatesets.clifford_group()
    unitaries = [e.unitary for e in group]
    calls = LOOKUP_REPEATS * len(group)
    with tr.span("probe.layers"):
        with tr.span("wire.conjugation_bits", calls=calls) as sp:
            for _ in range(LOOKUP_REPEATS):
                for u in unitaries:
                    wire.conjugation_bits(u)
        m["wire.conjugation_bits_us"] = 1e6 * benchlib.duration(sp) / calls
        with tr.span("gatesets.clifford_index", calls=calls) as sp:
            for _ in range(LOOKUP_REPEATS):
                for u in unitaries:
                    gatesets.clifford_index(u)
        m["gatesets.clifford_index_us"] = 1e6 * benchlib.duration(sp) / calls
        with tr.span("channels.frame_potential", calls=CHANNEL_REPEATS) as sp:
            for _ in range(CHANNEL_REPEATS):
                channels.frame_potential(unitaries, 2)
        m["channels.frame_potential_ms"] = 1e3 * benchlib.duration(sp) / CHANNEL_REPEATS
        noise = channels.random_cptp_channel(np.random.default_rng(TWIRL_SEED))
        with tr.span("channels.twirl", calls=CHANNEL_REPEATS) as sp:
            for _ in range(CHANNEL_REPEATS):
                channels.twirl(noise, unitaries)
        m["channels.twirl_ms"] = 1e3 * benchlib.duration(sp) / CHANNEL_REPEATS


def traced_pass(tr, workload, seed, workdir, k, ops):
    """One pass over every layer; returns its metrics, oracle values and stage time."""
    m: dict = {}
    passdir = os.path.join(workdir, f"traced{k}")
    os.makedirs(passdir)
    stages = {"sampling": 0.0}
    since = len(tr.spans)
    configs = wl.write_inputs("sampling", seed, passdir)
    for name in wl.EXPERIMENTS:
        rb, dataset, stage = _sampling_stage(tr, name, configs[name], passdir, m)
        stages["sampling"] += stage
        if name == "clifford-items":
            _per_length(tr, rb, dataset, ops, m)
    configs = wl.write_inputs("oracle-ladder", seed, passdir)
    values, stages["oracle-ladder"] = _oracle_stage(tr, configs, m)
    m["cli.load_config_ms"] = _mean_ms(tr.spans[since:], "cli.load_config")
    _layer_probes(tr, m)
    return m, values, stages[workload]


def measure(workload, seed, seconds, workdir, ops, untraced_stage_s):
    """Traced passes until ``seconds`` is spent (at least one)."""
    tr = benchlib.Tracer(f"{workload}-seed{seed}-{os.getpid()}")
    first = _first_calls(tr)
    passes, stage_s, values = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        m, out, stage = traced_pass(tr, workload, seed, workdir, len(passes) + 1, ops)
        values = out if values is None else values
        passes.append(m)
        stage_s.append(stage)
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            break
    # Counts are ints and repeat exactly; times are medians over passes.
    metrics = {
        k: v if isinstance(v, int) else benchlib.median(p[k] for p in passes)
        for k, v in passes[0].items()
    }
    metrics.update(first)
    metrics["trace.overhead_s"] = benchlib.median(stage_s) - untraced_stage_s
    return metrics, tr.spans, values
