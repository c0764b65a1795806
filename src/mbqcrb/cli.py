"""Command-line front end: verify the gate sets, run experiments, fit decays.

Configs are YAML key/value files; datasets are CSV with a commented metadata
preamble; fit reports are YAML. Angles in configs and reports are given in
units of pi, with the design's arccos(1/sqrt(3)) angle written symbolically.
All outputs embed the toolkit version and the full config, and are
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import partial

import numpy as np
import yaml

from . import MIN_RESAMPLES, __version__
from .engine import (
    RBConfig,
    RBDataset,
    SequenceRecord,
    SpamModel,
    run_protocol,
    sequence_fidelity_estimate,
    _exact_fidelity,
)
from .gatesets import (
    CLIFFORD_ANGLE_TABLE,
    VerificationError,
    clifford_group,
    derandomized_design,
    verify_2design,
    verify_angle_table,
    verify_byproduct_bits,
    verify_design_reference,
)
from .wire import InstrumentConfig, NoiseModel, _entries, _instance, _normalise

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

DESIGN_TOL = 1e-9
_ACOS_SQRT3 = float(np.arccos(1.0 / np.sqrt(3.0)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable mirror of an RBConfig plus output path and toggles."""

    rb: RBConfig
    output: str | None = None
    verify_first: bool = False

    def __post_init__(self):
        _normalise(self, output=_instance(str, type(None)), verify_first=_instance(bool))


def format_angle_pi(theta: float) -> str:
    """Angle as a multiple of pi, or the symbolic design angle."""
    if abs(theta - _ACOS_SQRT3) < 1e-12:
        return "acos(1/sqrt3)"
    return repr(round(theta / np.pi, 12))


def _noise_to_dict(noise: NoiseModel) -> dict:
    d = {"kind": noise.kind}
    if noise.kind not in ("none", "composite"):
        d["strength"] = noise.strength
    d["placement"] = noise.placement
    if noise.parts:
        d["parts"] = [_noise_to_dict(p) for p in noise.parts]
    if noise.dependence is not None:
        raise ValueError("noise with a dependence map cannot be serialized")
    return d


def config_to_dict(config: ExperimentConfig) -> dict:
    rb = config.rb
    d = {
        "protocol": rb.protocol,
        "lengths": list(rb.lengths),
        "sequences_per_length": rb.sequences_per_length,
        "shots_per_sequence": rb.shots_per_sequence,
        "seed": rb.seed,
        "clifford_mode": rb.clifford_mode,
        "design_phis": [round(x / np.pi, 12) for x in rb.design_phis],
        "noise": _noise_to_dict(rb.noise),
        "instrument": asdict(rb.instrument),
        "spam": asdict(rb.spam),
        "verify_first": config.verify_first,
    }
    if rb.noise_inv is not None:
        d["noise_inv"] = _noise_to_dict(rb.noise_inv)
    if config.output is not None:
        d["output"] = config.output
    return d


def _section(cls, d, where: str, **convert):
    """``cls`` built from the config-file mapping ``d``, whose keys are its fields but
    ``dependence``. Only the keys given are passed, so the defaults and checks
    of ``cls`` apply; ``convert[key]`` turns a file value into a field value.
    Messages name ``where``, the section's path, which is empty at the top."""
    name = where or "config"
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a key/value mapping, got {d!r}")
    accepted = [f for f in fields(cls) if f.name != "dependence"]
    unknown = [str(k) for k in d if k not in {f.name for f in accepted}]
    if unknown:
        raise ValueError(f"unknown key in {name}: {', '.join(unknown)}")
    missing = [f.name for f in accepted if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"{name} is missing required keys: {', '.join(missing)}")
    values = {k: convert[k](v) if k in convert else v for k, v in d.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}" if where else str(exc)) from None


def _noise_from_dict(d, where: str) -> NoiseModel:
    parts = partial(_entries, _noise_from_dict, what=f"{where} parts")
    return _section(NoiseModel, d, where, parts=parts)


def config_from_dict(d) -> ExperimentConfig:
    """The experiment a config file's top-level mapping describes; angles are in units of pi."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a key/value mapping, got {d!r}")
    options = ("output", "verify_first")
    rb = _section(
        RBConfig,
        {k: v for k, v in d.items() if k not in options},
        "",
        noise=lambda v: _noise_from_dict(v, "noise"),
        noise_inv=lambda v: _noise_from_dict(v, "noise_inv"),
        instrument=lambda v: _section(InstrumentConfig, v, "instrument"),
        spam=lambda v: _section(SpamModel, v, "spam"),
    )
    phis = tuple(x * np.pi for x in rb.design_phis)
    for k, (x, phi) in enumerate(zip(rb.design_phis, phis), 1):
        if not np.isfinite(phi):
            raise ValueError(
                f"design_phis entry {k} is {x!r} (units of pi), too large to convert to radians"
            )
    rb = replace(rb, design_phis=phis)
    return ExperimentConfig(rb=rb, **{k: d[k] for k in options if k in d})


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(yaml.safe_load(fh))


# ---------------------------------------------------------------------------
# dataset and report files
# ---------------------------------------------------------------------------

# v2: wire-protocol survivals are drawn at each sequence's outcome-averaged
# survival, and derandomized digests hash no outcomes. Circuit records are
# drawn as in v1, so circuit datasets keep the v1 header and their bytes.
# read_dataset reads both and rejects a file that starts with any other line.
_DATASET_MAGIC = "mbqcrb-dataset-v2"
_CIRCUIT_DATASET_MAGIC = "mbqcrb-dataset-v1"
_READABLE_HEADERS = (f"# {_CIRCUIT_DATASET_MAGIC}", f"# {_DATASET_MAGIC}")
_DATASET_FIELDS = ("s", "sequence_index", "survivals", "shots", "gate_digest")


def write_dataset(dataset: RBDataset, path: str, output_name: str | None = None):
    config = ExperimentConfig(rb=dataset.config, output=output_name)
    buf = io.StringIO()
    circuit = dataset.config.protocol == "circuit"
    buf.write(f"# {_CIRCUIT_DATASET_MAGIC if circuit else _DATASET_MAGIC}\n")
    buf.write(f"# version: {__version__}\n")
    buf.write(f"# config: {json.dumps(config_to_dict(config), sort_keys=True)}\n")
    buf.write(f"# warnings: {json.dumps(list(dataset.warnings))}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_DATASET_FIELDS)
    for r in dataset.records:
        writer.writerow([r.s, r.index, r.survivals, r.shots, r.digest])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_dataset(path: str) -> RBDataset:
    """Load a dataset CSV; drawn gate indices are not stored, only digests."""
    meta = {}
    body = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header not in _READABLE_HEADERS:
            raise ValueError(
                f"{path} does not start with a dataset header "
                f"({' or '.join(_READABLE_HEADERS)}): {header!r}"
            )
        for line in fh:
            if line.startswith("#"):
                text = line[1:].strip()
                if ":" in text:
                    key, _, value = text.partition(":")
                    meta[key.strip()] = value.strip()
            elif line.strip():
                body.append(line)
    rows = list(csv.reader(body))
    if not rows or tuple(rows[0]) != _DATASET_FIELDS:
        raise ValueError(f"{path} is not a recognized dataset file")
    if "config" not in meta:
        raise ValueError(f"{path} has no embedded config")
    config = config_from_dict(json.loads(meta["config"]))
    text = meta.get("warnings", "[]")
    warnings = json.loads(text)
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ValueError(f"{path}: the warnings line must hold a JSON list of strings, got {text!r}")
    records = []
    for k, r in enumerate(rows[1:], start=1):
        if len(r) != len(_DATASET_FIELDS):
            raise ValueError(
                f"{path}: data row {k} ({','.join(r)}) has {len(r)} fields, "
                f"expected {len(_DATASET_FIELDS)}"
            )
        counts = []
        for name, text in zip(_DATASET_FIELDS[:4], r):
            try:
                counts.append(int(text))
            except ValueError:
                raise ValueError(
                    f"{path}: data row {k} ({','.join(r)}) field {name} is not an integer: {text!r}"
                ) from None
        s, index, survivals, shots = counts
        records.append(
            SequenceRecord(
                s=s, index=index, gate_indices=(), survivals=survivals, shots=shots, digest=r[4]
            )
        )
    rb = config.rb
    seen = set()
    for r in records:
        where = f"{path}: row s={r.s}, sequence_index={r.index}"
        if (r.s, r.index) in seen:
            raise ValueError(f"{where} appears more than once")
        seen.add((r.s, r.index))
        if r.s not in rb.lengths:
            raise ValueError(f"{where}: length {r.s} is not in the config lengths")
        if not 0 <= r.index < rb.sequences_per_length:
            raise ValueError(f"{where}: sequence_index outside [0, {rb.sequences_per_length})")
        if r.shots != rb.shots_per_sequence:
            raise ValueError(
                f"{where}: {r.shots} shots, config has shots_per_sequence {rb.shots_per_sequence}"
            )
    return RBDataset(config=rb, records=tuple(records), warnings=tuple(warnings))


def write_fit_report(path: str, report: dict):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# mbqcrb-fit-v1\n")
        yaml.safe_dump(report, fh, sort_keys=False)


def write_curve_table(path: str, rows, report_meta: dict):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# mbqcrb-curve-v1\n")
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# config: {json.dumps(report_meta, sort_keys=True)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["s", "mean", "stderr", "model"])
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _verify_checks():
    """The verification suite, as (name, check) pairs."""

    def check_table():
        devs = verify_angle_table(CLIFFORD_ANGLE_TABLE)
        return f"24/24 rows, max deviation {max(devs.values()):.2e}"

    def check_reference():
        devs = verify_design_reference()
        return f"max deviation {max(devs.values()):.2e}"

    def check_clifford_design():
        gates = [e.unitary for e in clifford_group()]
        if not verify_2design(gates, DESIGN_TOL):
            raise VerificationError("Clifford set failed the 2-design diagnostics")
        return f"frame potential and twirl within {DESIGN_TOL:.0e}"

    def check_derandomized_design():
        gates = list(derandomized_design().elements)
        if not verify_2design(gates, DESIGN_TOL):
            raise VerificationError("derandomized set failed the 2-design diagnostics")
        return f"{len(gates)} elements within {DESIGN_TOL:.0e}"

    def check_byproducts():
        worst = verify_byproduct_bits()
        return f"512/512 cases, max deviation {worst:.2e}"

    return [
        ("clifford-angle-table", check_table),
        ("design-reference-matrices", check_reference),
        ("clifford-2design", check_clifford_design),
        ("derandomized-2design", check_derandomized_design),
        ("byproduct-bits", check_byproducts),
    ]


def cmd_verify(args) -> int:
    failed = []
    for name, check in _verify_checks():
        try:
            detail = check()
            if not args.quiet:
                print(f"PASS {name}: {detail}")
        except (VerificationError, ValueError) as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}")
    if failed:
        print(f"verification failed: {', '.join(failed)}")
        return EXIT_VALIDATION
    if not args.quiet:
        angles = ", ".join(format_angle_pi(t) for t in derandomized_design().angles)
        print(f"design pattern angles (pi units): {angles}")
    return EXIT_OK


def _read_config(path: str, seed: int | None = None) -> tuple[ExperimentConfig | None, int]:
    """The config at ``path`` (with ``seed``, if given) and EXIT_OK, or None and the exit code."""
    try:
        config = load_config(path)
        if seed is not None:
            config = replace(config, rb=replace(config.rb, seed=seed))
        return config, EXIT_OK
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except (ValueError, yaml.YAMLError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_run(args) -> int:
    config, code = _read_config(args.config, args.seed)
    if config is None:
        return code
    if config.verify_first:
        for name, check in _verify_checks():
            try:
                check()
            except (VerificationError, ValueError) as exc:
                print(f"FAIL {name}: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
    try:
        dataset = run_protocol(config.rb)
    except ValueError as exc:
        print(f"invalid experiment: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = args.out or config.output or "dataset.csv"
    try:
        write_dataset(dataset, out, output_name=config.output)
    except OSError as exc:
        print(f"cannot write dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.quiet:
        for warning in dataset.warnings:
            print(f"warning: {warning}")
        print(f"wrote {len(dataset.records)} records to {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    # imported here, so run, oracle and verify never load fitting
    from .fitting import bootstrap_ci, fit_decay

    if args.resamples != 0 and args.resamples < MIN_RESAMPLES:
        print(
            f"invalid --resamples {args.resamples}: use 0 (no bootstrap) or >= {MIN_RESAMPLES}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    try:
        dataset = read_dataset(args.dataset)
    except OSError as exc:
        print(f"cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid dataset: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    points = [(s, *sequence_fidelity_estimate(dataset, s)) for s in dataset.lengths()]
    try:
        fit = fit_decay(points)
    except ValueError as exc:
        print(f"cannot fit: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    ci = None
    if args.resamples > 0:
        rng = np.random.Generator(
            np.random.Philox(
                np.random.SeedSequence((dataset.config.seed, 0xB007, args.resamples))
            )
        )
        ci = bootstrap_ci(dataset, args.resamples, rng)

    report = {
        "version": __version__,
        "protocol": dataset.config.protocol,
        "seed": dataset.config.seed,
        "lengths": list(dataset.lengths()),
        "a0": fit.a0,
        "b0": fit.b0,
        "p": fit.p,
        "avg_fidelity": fit.avg_fidelity,
        "residual_norm": fit.residual_norm,
        "ci_p": list(ci) if ci is not None else None,
        "resamples": args.resamples,
        "degenerate": fit.degenerate,
        "clamped": fit.clamped,
        "config": config_to_dict(ExperimentConfig(rb=dataset.config)),
        "warnings": list(dataset.warnings),
    }
    out = args.out or args.dataset + ".fit.yaml"
    curve_out = out + ".curve.csv"
    curve_rows = [
        (s, mean, stderr, fit.a0 * fit.p**s + fit.b0) for s, mean, stderr in points
    ]
    try:
        write_fit_report(out, report)
        write_curve_table(curve_out, curve_rows, report["config"])
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO
    if not args.quiet:
        print(f"p = {fit.p:.6f}, avg_fidelity = {fit.avg_fidelity:.6f}")
        if ci is not None:
            print(f"p 95% bootstrap CI: [{ci[0]:.6f}, {ci[1]:.6f}]")
        print(f"wrote {out} and {curve_out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    config, code = _read_config(args.config)
    if config is None:
        return code
    rb = config.rb
    lengths = rb.lengths if args.length is None else (args.length,)
    try:
        results = [(s, _exact_fidelity(rb, s)) for s in lengths]
    except ValueError as exc:
        print(f"cannot evaluate the oracle: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"protocol: {rb.protocol}")
    for s, exact in results:
        print(f"s: {s}")
        print(f"enumerated: {exact.enumerated!r}")
        print(f"analytic: {exact.analytic!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbqcrb",
        description="Randomized benchmarking on linear cluster-state wires",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the gate-set verification suite")
    p_verify.set_defaults(func=cmd_verify)

    p_run = sub.add_parser("run", help="run a benchmarking experiment")
    p_run.add_argument("--config", required=True, help="YAML experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="dataset output path")
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit the decay model to a dataset")
    p_fit.add_argument("dataset", help="dataset CSV produced by run")
    p_fit.add_argument("--out", default=None, help="fit report output path")
    p_fit.add_argument(
        "--resamples", type=int, default=200, help=f"bootstrap resamples (0, or >= {MIN_RESAMPLES})"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_oracle = sub.add_parser("oracle", help="exact sequence fidelity at any length")
    p_oracle.add_argument("--config", required=True, help="YAML experiment config")
    p_oracle.add_argument(
        "--length", type=int, default=None, help="sequence length (default: every configured length)"
    )
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
