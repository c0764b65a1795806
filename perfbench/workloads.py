"""The benchmark's workloads: their generated inputs and exact answers.

Configs are written as JSON, which YAML readers accept unchanged, so the
program receives ordinary config files and nothing else.

``sampling`` runs two experiments, each with ``run`` then ``fit``:

- ``clifford-items``: the shipped Clifford example (coset mode, per-block
  depolarizing 0.96, 20 lengths x 50 sequences x 200 shots). Cost is per
  item, not per shot, and 1000 sequences feed the bootstrap.
- ``derand-shots``: derandomized protocol with few items and many shots
  (6 lengths x 4 sequences x 10k shots), so nearly all cost is per shot and
  no Clifford-table path runs; the fit sees only 24 sequences.

``oracle-ladder`` runs ``verify`` and the exact oracle at every length up to
the enumeration limit of each variant, under gate-dependent noise. Only the
exact engine, gatesets and channels work there.
"""

from __future__ import annotations

import json
import os

WORKLOADS = ("sampling", "oracle-ladder")
EXPERIMENTS = ("clifford-items", "derand-shots")

RESAMPLES = 200

# Both sampling experiments use gate-independent depolarizing noise, a
# noiseless inverse and ideal SPAM, so every sequence survives with exactly
# F(s) = 1/2 + p^s / 2 and fitting must recover p.
CLIFFORD_BLOCK_P = 0.96
DERAND_STEP_P = 0.99
TRUE_P = {"clifford-items": CLIFFORD_BLOCK_P, "derand-shots": DERAND_STEP_P**5}

# variant: (protocol, clifford_mode, largest enumerable length at this commit)
ORACLE_VARIANTS = {
    "circuit": ("circuit", "coset", 4),
    "clifford-mbqc-coset": ("clifford-mbqc", "coset", 4),
    "clifford-mbqc-full": ("clifford-mbqc", "full", 4),
    "derandomized-mbqc": ("derandomized-mbqc", "coset", 3),
}
ORACLE_SPAM = {"prep_shrink": 0.98, "effect_bias": 0.01}
ORACLE_BIAS = 0.1
ORACLE_DAMPING = 0.02
TWIN_DEPOLARIZING = 0.98


def analytic_fidelity(experiment: str, s: int) -> float:
    return 0.5 + 0.5 * TRUE_P[experiment] ** s


def oracle_rungs():
    """(variant, s) for every rung of the ladder, in the order they run."""
    return [
        (variant, s)
        for variant, (_, _, top) in ORACLE_VARIANTS.items()
        for s in range(1, top + 1)
    ]


def sampling_config(experiment: str, seed: int) -> dict:
    if experiment == "clifford-items":
        return {
            "protocol": "clifford-mbqc",
            "lengths": list(range(1, 21)),
            "sequences_per_length": 50,
            "shots_per_sequence": 200,
            "seed": seed,
            "clifford_mode": "coset",
            "noise": {
                "kind": "depolarizing",
                "strength": CLIFFORD_BLOCK_P,
                "placement": "after-each-gate-block",
            },
            "noise_inv": {"kind": "none"},
            "instrument": {"bias": 0.0, "inject_randomness": False},
            "spam": {"prep_shrink": 1.0, "effect_bias": 0.0},
        }
    if experiment == "derand-shots":
        return {
            "protocol": "derandomized-mbqc",
            "lengths": [1, 2, 4, 8, 16, 32],
            "sequences_per_length": 4,
            "shots_per_sequence": 10000,
            "seed": seed,
            "design_phis": [0.0, 0.0],
            "noise": {
                "kind": "depolarizing",
                "strength": DERAND_STEP_P,
                "placement": "after-each-step",
            },
            "noise_inv": {"kind": "none"},
            "instrument": {"bias": 0.05, "inject_randomness": True},
            "spam": {"prep_shrink": 1.0, "effect_bias": 0.0},
        }
    raise ValueError(f"unknown sampling experiment {experiment!r}")


def oracle_config(variant: str, seed: int) -> dict:
    protocol, mode, top = ORACLE_VARIANTS[variant]
    return {
        "protocol": protocol,
        "lengths": list(range(1, top + 1)),
        "sequences_per_length": 1,
        "shots_per_sequence": 1,
        "seed": seed,
        "clifford_mode": mode,
        "noise": {
            "kind": "amplitude-damping",
            "strength": ORACLE_DAMPING,
            "placement": "after-each-step",
        },
        "instrument": {"bias": ORACLE_BIAS, "inject_randomness": False},
        "spam": dict(ORACLE_SPAM),
    }


def write_inputs(workload: str, seed: int, directory: str) -> dict[str, str]:
    """Write the workload's config files; returns {input name: path}."""
    if workload == "oracle-ladder":
        configs = {v: oracle_config(v, seed) for v in ORACLE_VARIANTS}
    else:
        configs = {e: sampling_config(e, seed) for e in EXPERIMENTS}
    paths = {}
    for name, config in configs.items():
        path = os.path.join(directory, f"{name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1)
            fh.write("\n")
        paths[name] = path
    return paths
