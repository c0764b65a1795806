"""Command-line front end: the dataset and report files, and the commands
that verify the gate sets, run experiments, fit decays and evaluate the oracle.

Configs are YAML key/value files, read and checked by ``config``; datasets
are CSV with a commented metadata preamble; fit reports are YAML.
Angles in configs and reports are given in units of pi; only the design
pattern that ``verify`` prints writes its arccos(1/sqrt(3)) angle symbolically.
All outputs embed the toolkit version and the full config, and are
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import replace

import numpy as np

from . import MIN_RESAMPLES, __version__
from .config import ExperimentConfig, config_from_dict, config_to_dict, load_config
from .engine import (
    RBDataset,
    SequenceRecord,
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

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

DESIGN_TOL = 1e-9
_ACOS_SQRT3 = float(np.arccos(1.0 / np.sqrt(3.0)))


def format_angle_pi(theta: float) -> str:
    """Angle as a multiple of pi, or the symbolic design angle."""
    if abs(theta - _ACOS_SQRT3) < 1e-12:
        return "acos(1/sqrt3)"
    return repr(round(theta / np.pi, 12))


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
_INTEGER = re.compile("-?[0-9]+")  # a count field: ASCII digits, nothing else


def _write_preamble(fh, magic: str, config: dict) -> None:
    """The magic, version and config lines that open a dataset or curve table."""
    fh.write(f"# {magic}\n")
    fh.write(f"# version: {__version__}\n")
    fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")


def write_dataset(dataset: RBDataset, path: str, output_name: str | None = None):
    config = ExperimentConfig(rb=dataset.config, output=output_name)
    buf = io.StringIO()
    circuit = dataset.config.protocol == "circuit"
    _write_preamble(buf, _CIRCUIT_DATASET_MAGIC if circuit else _DATASET_MAGIC, config_to_dict(config))
    buf.write(f"# warnings: {json.dumps(list(dataset.warnings))}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_DATASET_FIELDS)
    for r in dataset.records:
        writer.writerow([r.s, r.index, r.survivals, r.shots, r.digest])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def _unique_keys(pairs):
    """``object_pairs_hook`` for ``json.loads`` that raises ValueError on a key
    repeated in one object, at any depth."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_dataset(path: str) -> RBDataset:
    """Load a dataset CSV; drawn gate indices are not stored, only digests.

    A preamble line given twice, or a key repeated in the config, raises
    ValueError rather than letting the last one win.
    """
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
                    key = key.strip()
                    if key in meta:
                        raise ValueError(f"{path}: the {key} line appears more than once")
                    meta[key] = value.strip()
            elif line.strip():
                body.append(line)
    rows = list(csv.reader(body))
    if not rows or tuple(rows[0]) != _DATASET_FIELDS:
        raise ValueError(f"{path} is not a recognized dataset file")
    if "config" not in meta:
        raise ValueError(f"{path} has no embedded config")
    try:
        entries = json.loads(meta["config"], object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ValueError(f"{path}: the config line: {exc}") from None
    config = config_from_dict(entries)
    text = meta.get("warnings", "[]")
    try:
        warnings = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: the warnings line: {exc}") from None
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
            if not _INTEGER.fullmatch(text):
                raise ValueError(
                    f"{path}: data row {k} ({','.join(r)}) field {name} is not an integer: {text!r}"
                )
            counts.append(int(text))
        s, index, survivals, shots = counts
        try:
            record = SequenceRecord(
                s=s, index=index, gate_indices=(), survivals=survivals, shots=shots, digest=r[4]
            )
        except ValueError as exc:
            raise ValueError(f"{path}: data row {k} ({','.join(r)}): {exc}") from None
        records.append(record)
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
    import yaml

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# mbqcrb-fit-v1\n")
        yaml.safe_dump(report, fh, sort_keys=False)


def write_curve_table(path: str, rows, report_meta: dict):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_preamble(fh, "mbqcrb-curve-v1", report_meta)
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


def _run_checks(quiet: bool, fail_stream) -> list[str]:
    """Run the verification suite: a PASS line per passed check on stdout unless ``quiet``,
    a FAIL line per failed one on ``fail_stream``. Returns the failed checks' names."""
    failed = []
    for name, check in _verify_checks():
        try:
            detail = check()
        except (VerificationError, ValueError) as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}", file=fail_stream)
        else:
            if not quiet:
                print(f"PASS {name}: {detail}")
    return failed


def cmd_verify(args) -> int:
    failed = _run_checks(args.quiet, sys.stdout)
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
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_run(args) -> int:
    config, code = _read_config(args.config, args.seed)
    if config is None:
        return code
    if config.verify_first and _run_checks(quiet=True, fail_stream=sys.stderr):
        return EXIT_VALIDATION
    try:
        dataset = run_protocol(config.rb)
    except (ValueError, MemoryError) as exc:
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
