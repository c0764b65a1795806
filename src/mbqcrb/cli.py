"""Command-line front end: the dataset and report files, and the commands
that verify the gate sets, run experiments, fit decays and evaluate the oracle.

Configs are YAML or JSON key/value files, read and checked by ``config``; datasets
are CSV with a commented metadata preamble; fit reports are YAML, written
without PyYAML in the bytes of ``yaml.safe_dump(report, sort_keys=False)``.
A report string is written plain only if it is one of ``_PLAIN_STRINGS`` (the
version, the setting names and the bias warning), which PyYAML writes plain
too. Any other string, such as a warning edited into a dataset, is written
double-quoted, with JSON's escapes and ``\\uXXXX`` for the characters YAML
must not read raw, where PyYAML might have written it plain or single-quoted.
So PyYAML is loaded only to read a config file that is not JSON.
Angles in configs and reports are given in units of pi; only the design
pattern that ``verify`` prints writes its arccos(1/sqrt(3)) angle symbolically.
All outputs embed the toolkit version and the full config, and are
byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import MIN_RESAMPLES, __version__
from .config import (
    AFTER_EACH_GATE_BLOCK,
    AFTER_EACH_STEP,
    CLIFFORD_MODES,
    NOISE_KINDS,
    PROTOCOLS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_json,
)
from .engine import (
    RBDataset,
    SequenceRecord,
    run_protocol,
    sequence_fidelity_estimate,
    _BIAS_WARNING,
    _exact_fidelity,
)
from .gatesets import (
    ACOS_SQRT3,
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


def format_angle_pi(theta: float) -> str:
    """Angle as a multiple of pi, or the symbolic design angle."""
    if abs(theta - ACOS_SQRT3) < 1e-12:
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
_INTEGER = re.compile("-?[0-9]+")  # a count: ASCII digits, nothing else


def _count(text: str) -> int:
    """``text`` as an int by the count rule: a dataset's count fields and the
    command line's integers follow it."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _write_preamble(fh, magic: str, config: dict) -> None:
    """The magic, version and config lines that open a dataset or curve table."""
    fh.write(f"# {magic}\n")
    fh.write(f"# version: {__version__}\n")
    fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")


def _replaces_input(source: str, *outputs: str) -> bool:
    """Whether one of ``outputs`` is ``source``'s own directory entry: the
    same name in the same directory, with the directory's symlinks resolved.
    If so, says which on stderr. A symlink to ``source`` is an entry of its
    own, which a write replaces."""

    def entry(path):
        head, name = os.path.split(path)
        return os.path.realpath(head or os.curdir), name

    for out in outputs:
        if entry(out) == entry(source):
            print(f"invalid output: {out} would replace the input {source}", file=sys.stderr)
            return True
    return False


def _write_whole(writes) -> None:
    """Write whole files or none. ``writes`` holds (path, write) pairs: each
    ``write(name)`` writes its file at a fresh name beside ``path``, and then
    ``os.replace`` moves the files to their paths in order. On any failure
    every file written or moved here is removed, so a reader never sees a
    partial file, nor some of the files without the rest. A path held by
    anything but a regular file, such as a directory or a device, is
    refused before any file is written, since it would be replaced. An
    OSError that names a file's fresh name is raised again naming its path."""
    for path, _ in writes:
        if os.path.exists(path) and not os.path.isfile(path):
            raise OSError(f"{path} exists and is not a regular file")
    made = []
    try:
        for path, write in writes:
            made.append(f"{path}.{os.urandom(4).hex()}.tmp")
            write(made[-1])
        for k, (path, _) in enumerate(writes):
            os.replace(made[k], path)
            made[k] = path
    except BaseException as exc:
        for name in made:
            try:
                os.remove(name)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.filename in made:
            path = writes[made.index(exc.filename)][0]
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_dataset(dataset: RBDataset, path: str, output_name: str | None = None):
    import csv  # in each function that reads or writes CSV: verify and oracle never load it

    # built first, so a config that cannot be serialized leaves no file
    config = config_to_dict(ExperimentConfig(rb=dataset.config, output=output_name))
    magic = _CIRCUIT_DATASET_MAGIC if dataset.config.protocol == "circuit" else _DATASET_MAGIC

    def write(name):
        with open(name, "w", encoding="utf-8", newline="") as fh:
            _write_preamble(fh, magic, config)
            fh.write(f"# warnings: {json.dumps(list(dataset.warnings))}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_DATASET_FIELDS)
            writer.writerows(dataset.records)

    _write_whole([(path, write)])


def _json_line(path: str, key: str, text: str, read=lambda value: value):
    """``read`` applied to the JSON of the preamble line ``# <key>: <text>``,
    read by ``parse_json``, the rule of config files. Text it rejects, a
    ValueError from ``read`` or nesting too deep to read raises ValueError
    naming the file and the line."""
    try:
        return read(parse_json(text))
    except ValueError as exc:
        raise ValueError(f"{path}: the {key} line: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: the {key} line is nested too deeply to read") from None


def _csv_rows(path: str, lines):
    """The CSV rows of ``lines``. A row the reader rejects raises ValueError
    naming its data row, the column header being row 0."""
    import csv

    k = -1
    try:
        for k, row in enumerate(csv.reader(lines)):
            yield row
    except csv.Error as exc:
        raise ValueError(f"{path}: data row {k + 1}: {exc}") from None


def read_dataset(path: str) -> RBDataset:
    """Load a dataset CSV; drawn gate indices are not stored, only digests.

    The ``#`` lines are read first, wherever they stand. Then each data row
    is checked and kept as its record as the CSV reader parses it. A
    preamble line given twice, or a key repeated in a JSON line, raises
    ValueError rather than letting the last one win.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # decoded whole, so an error's position is the byte's offset in the file
            content = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    header = re.match(".*", content)[0]  # the first line
    if header not in _READABLE_HEADERS:
        raise ValueError(
            f"{path} does not start with a dataset header "
            f"({' or '.join(_READABLE_HEADERS)}): {header!r}"
        )
    meta = {}
    for line in re.finditer("(?m)^#.*", content):  # the header too, which has no ':'
        key, colon, value = line[0][1:].strip().partition(":")
        if colon:
            key = key.strip()
            if key in meta:
                raise ValueError(f"{path}: the {key} line appears more than once")
            meta[key] = value.strip()
    rows = _csv_rows(path, (m[0] for m in re.finditer("(?m)^[^#\n].*\n?", content) if not m[0].isspace()))
    if tuple(next(rows, ())) != _DATASET_FIELDS:
        raise ValueError(f"{path} is not a recognized dataset file")
    if "config" not in meta:
        raise ValueError(f"{path} has no embedded config")
    config = _json_line(path, "config", meta["config"], config_from_dict)
    text = meta.get("warnings", "[]")
    warnings = _json_line(path, "warnings", text)
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ValueError(f"{path}: the warnings line must hold a JSON list of strings, got {text!r}")
    rb = config.rb

    def where(s, index):  # built only for a message
        return f"{path}: row s={s}, sequence_index={index}"

    lengths, count, shots_each = frozenset(rb.lengths), rb.sequences_per_length, rb.shots_per_sequence
    records, seen = [], set()
    for k, r in enumerate(rows, start=1):
        if len(r) != len(_DATASET_FIELDS):
            raise ValueError(
                f"{path}: data row {k} ({','.join(r)}) has {len(r)} fields, "
                f"expected {len(_DATASET_FIELDS)}"
            )
        for name, text in zip(_DATASET_FIELDS[:4], r):
            if not _INTEGER.fullmatch(text):
                raise ValueError(
                    f"{path}: data row {k} ({','.join(r)}) field {name} is not an integer: {text!r}"
                )
        s, index, survivals, shots = map(int, r[:4])
        if not 0 <= survivals <= shots:
            raise ValueError(
                f"{path}: data row {k} ({','.join(r)}): survival count {survivals} outside [0, {shots}]"
            )
        if s not in lengths:
            raise ValueError(f"{where(s, index)}: length {s} is not in the config lengths")
        if not 0 <= index < count:
            raise ValueError(f"{where(s, index)}: sequence_index outside [0, {count})")
        # a repeated row's first copy passed the two checks above, so its
        # repeats pass them too and are found here, by a key of one int
        cell = s * count + index
        if cell in seen:
            raise ValueError(f"{where(s, index)} appears more than once")
        if shots != shots_each:
            raise ValueError(f"{where(s, index)}: {shots} shots, config has shots_per_sequence {shots_each}")
        seen.add(cell)
        records.append(SequenceRecord(s, index, survivals, shots, r[4]))
    return RBDataset(config=rb, records=tuple(records), warnings=tuple(warnings))


# The strings a report holds that yaml.safe_dump writes plain. Any other
# string, such as a warning edited into a dataset, is written double-quoted.
_PLAIN_STRINGS = frozenset(
    (__version__, _BIAS_WARNING, AFTER_EACH_STEP, AFTER_EACH_GATE_BLOCK,
     *PROTOCOLS, *CLIFFORD_MODES, *NOISE_KINDS)
)
# YAML reads these raw as line breaks or rejects them; JSON leaves them raw
_YAML_UNPRINTABLE = re.compile("[\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]")


def _yaml_scalar(value) -> str:
    """``value`` as ``yaml.safe_dump`` writes it; a string outside
    ``_PLAIN_STRINGS`` double-quoted, with JSON's escapes and ``\\uXXXX`` for
    the characters that YAML must not read raw."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(float(value)).lower()
        if "." not in text and "e" in text:
            text = text.replace("e", ".0e", 1)  # 1e-05 -> 1.0e-05, a YAML float
        return {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}.get(text, text)
    if not isinstance(value, str):
        raise TypeError(f"a fit report cannot hold {value!r}")
    if value in _PLAIN_STRINGS:
        return value
    quoted = json.dumps(value, ensure_ascii=False)
    return _YAML_UNPRINTABLE.sub(lambda m: f"\\u{ord(m[0]):04x}", quoted)


def _yaml_lines(mapping: dict, indent: str = ""):
    """The lines of ``mapping``, a report or a section of it, as
    ``yaml.safe_dump(sort_keys=False)`` writes them in block style."""
    for key, value in mapping.items():
        if isinstance(value, dict) and value:
            yield f"{indent}{key}:"
            yield from _yaml_lines(value, indent + "  ")
        elif isinstance(value, list) and value:
            yield f"{indent}{key}:"
            for item in value:
                if isinstance(item, dict):  # its first key follows the dash
                    first, *rest = _yaml_lines(item, indent + "  ")
                    yield f"{indent}- {first.lstrip()}"
                    yield from rest
                else:
                    yield f"{indent}- {_yaml_scalar(item)}"
        else:
            yield f"{indent}{key}: {'[]' if isinstance(value, list) else _yaml_scalar(value)}"


def write_fit_report(path: str, report: dict):
    """The report under its ``# mbqcrb-fit-v1`` line, in the bytes that
    ``yaml.safe_dump(report, sort_keys=False)`` writes, without loading PyYAML."""
    text = "".join(f"{line}\n" for line in _yaml_lines(report))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# mbqcrb-fit-v1\n" + text)


def write_curve_table(path: str, rows, report_meta: dict):
    import csv

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
    out = args.out or config.output or "dataset.csv"
    if _replaces_input(args.config, out):
        return EXIT_VALIDATION
    if config.verify_first and _run_checks(quiet=True, fail_stream=sys.stderr):
        return EXIT_VALIDATION
    try:
        dataset = run_protocol(config.rb)
    except (ValueError, MemoryError) as exc:
        print(f"invalid experiment: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
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
    out = args.out or args.dataset + ".fit.yaml"
    curve_out = out + ".curve.csv"
    if _replaces_input(args.dataset, out, curve_out):
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
    ci = None
    try:
        fit = fit_decay(points)
        if args.resamples > 0:
            seed = np.random.SeedSequence((dataset.config.seed, 0xB007, args.resamples))
            ci = bootstrap_ci(dataset, args.resamples, np.random.Generator(np.random.Philox(seed)))
    except (ValueError, MemoryError) as exc:
        print(f"cannot fit: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

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
    curve_rows = [
        (s, mean, stderr, fit.a0 * fit.p**s + fit.b0) for s, mean, stderr in points
    ]
    try:  # the table first and the report last: a report is never without its table
        _write_whole([
            (curve_out, lambda name: write_curve_table(name, curve_rows, report["config"])),
            (out, lambda name: write_fit_report(name, report)),
        ])
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


def _out_path(text: str) -> str:
    """An --out path: an empty one is a usage error, not the default path."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits EXIT_VALIDATION: its own
    code, 2, is EXIT_IO here. An ``int`` argument is read by ``_count``, and
    argparse still names its type int in the error. Subparsers are built of
    the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _count)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mbqcrb",
        description="Randomized benchmarking on linear cluster-state wires",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the gate-set verification suite")
    p_verify.set_defaults(func=cmd_verify)

    p_run = sub.add_parser("run", help="run a benchmarking experiment")
    p_run.add_argument("--config", required=True, help="YAML or JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", type=_out_path, default=None, help="dataset output path")
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit the decay model to a dataset")
    p_fit.add_argument("dataset", help="dataset CSV produced by run")
    p_fit.add_argument("--out", type=_out_path, default=None, help="fit report output path")
    p_fit.add_argument(
        "--resamples", type=int, default=200, help=f"bootstrap resamples (0, or >= {MIN_RESAMPLES})"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_oracle = sub.add_parser("oracle", help="exact sequence fidelity at any length")
    p_oracle.add_argument("--config", required=True, help="YAML or JSON experiment config")
    p_oracle.add_argument(
        "--length", type=int, default=None, help="sequence length (default: every configured length)"
    )
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # finds a closed stdout that a block buffer hid until exit
    except BrokenPipeError:  # as the Python documentation's note on SIGPIPE shows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit's flush
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
