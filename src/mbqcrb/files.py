"""The dataset, fit-report and curve-table files.

Datasets are CSV with a commented metadata preamble; fit reports are YAML,
written without PyYAML in the bytes of ``yaml.safe_dump(report, sort_keys=False)``.
A report string is written plain only if it is one of ``_PLAIN_STRINGS`` (the
version, the setting names and the bias warning), which PyYAML writes plain
too. Any other string, such as a warning edited into a dataset, is written
double-quoted, with JSON's escapes and ``\\uXXXX`` for the characters YAML
must not read raw, where PyYAML might have written it plain or single-quoted.
Every file embeds the toolkit version and the full config. Only ``run`` and
``fit`` import this module, so ``verify`` and ``oracle`` never compile it.
"""

from __future__ import annotations

import json
import os
import re
import sys

from . import __version__
from .config import (
    AFTER_EACH_GATE_BLOCK,
    AFTER_EACH_STEP,
    CLIFFORD_MODES,
    INTEGER,
    NOISE_KINDS,
    PROTOCOLS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    parse_json,
)
from .engine import RBDataset, SequenceRecord, _BIAS_WARNING

# v2: wire-protocol survivals are drawn at each sequence's outcome-averaged
# survival, and derandomized digests hash no outcomes. Circuit records are
# drawn as in v1, so circuit datasets keep the v1 header and their bytes.
# read_dataset reads both and rejects a file that starts with any other line.
_DATASET_MAGIC = "mbqcrb-dataset-v2"
_CIRCUIT_DATASET_MAGIC = "mbqcrb-dataset-v1"
_READABLE_HEADERS = (f"# {_CIRCUIT_DATASET_MAGIC}", f"# {_DATASET_MAGIC}")
_DATASET_FIELDS = ("s", "sequence_index", "survivals", "shots", "gate_digest")


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
            if not INTEGER.fullmatch(text):
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
