import csv
import errno
import hashlib
import json
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mbqcrb
import mbqcrb.files
import mbqcrb.verify
from mbqcrb import __version__
from mbqcrb.channels import I2, X, Y, Z
from mbqcrb.cli import format_angle_pi, main
from mbqcrb.config import (
    AFTER_EACH_GATE_BLOCK,
    AFTER_EACH_STEP,
    CLIFFORD_MODES,
    NOISE_KINDS,
    PROTOCOLS,
    ExperimentConfig,
    InstrumentConfig,
    NoiseModel,
    RBConfig,
    SpamModel,
    _config_loader,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_json,
)
from mbqcrb.files import _PLAIN_STRINGS, _yaml_scalar, read_dataset, write_dataset, write_fit_report
from mbqcrb.engine import (
    _BIAS_WARNING,
    RBDataset,
    SequenceRecord,
    exact_sequence_fidelity,
    run_protocol,
    sequence_fidelity_estimate,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

SAMPLE = {
    "protocol": "clifford-mbqc",
    "lengths": [1, 2, 3, 4, 5, 6],
    "sequences_per_length": 8,
    "shots_per_sequence": 40,
    "seed": 7,
    "clifford_mode": "coset",
    "design_phis": [0.0, 0.0],
    "noise": {"kind": "depolarizing", "strength": 0.9, "placement": "after-each-gate-block"},
    "noise_inv": {"kind": "none", "placement": "after-each-gate-block"},
    "instrument": {"bias": 0.0, "inject_randomness": False},
    "spam": {"prep_shrink": 1.0, "effect_bias": 0.0},
    "verify_first": False,
}


def write_sample_config(path, **overrides):
    data = {**SAMPLE, **overrides}
    path.write_text(yaml.safe_dump(data))
    return data


def nested_composite(depth: int) -> dict:
    """A noise section: one depolarizing part inside ``depth`` composites."""
    noise = {"kind": "depolarizing", "strength": 0.9}
    for _ in range(depth):
        noise = {"kind": "composite", "parts": [noise]}
    return noise


# Input nested far past the recursion limit, so that it fails to read with
# the few frames of a command as with pytest's many: 600 lists for PyYAML's
# composer, 2000 for json.loads, and 200 composites for config_from_dict,
# which YAML and JSON both read.
DEEP_LENGTHS = "[" * 600 + "1" + "]" * 600
DEEP_JSON = "[" * 2000 + "]" * 2000
DEEP_NOISE = json.dumps({**SAMPLE, "noise": nested_composite(200)})


# Edits of a dataset's text, for a REJECTED row's files or a test's dataset.
COLUMNS = "s,sequence_index,survivals,shots,gate_digest\n"


def preamble_line(key: str, value: str):
    """An edit that gives the ``# <key>:`` line ``value``."""

    def edited(text):
        text, n = re.subn(f"(?m)^# {key}: .*", lambda _: f"# {key}: {value}", text, count=1)
        assert n == 1, key
        return text
    return edited


def replaced(old: str, new: str):
    """An edit that replaces the first ``old``, which the text must hold, with ``new``."""

    def edited(text):
        assert old in text, old
        return text.replace(old, new, 1)
    return edited


def edit_rows(edit):
    """An edit that applies ``edit`` to the list of data rows, each with its newline."""

    def edited(text):
        head, columns, rows = text.partition(COLUMNS)
        assert columns, "no column header"
        return head + columns + "".join(edit(rows.splitlines(keepends=True)))
    return edited


def without(*starts: str):
    """An edit that drops every line that begins with one of ``starts``, of which the text must hold one."""

    def edited(text):
        lines = text.splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(starts)]
        assert len(kept) < len(lines), starts
        return "".join(kept)
    return edited


def row_at(k: int, *lines: str):
    """An edit that puts ``lines`` before the data row at index ``k``."""
    return edit_rows(lambda rows: rows[:k] + [f"{new}\n" for new in lines] + rows[k:])


# A float spelled with an exponent, which the config loader reads as a float
# where YAML 1.1 reads a string.
EXPONENT_FLOAT = re.compile(r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+")


PLACEMENTS = st.sampled_from(["after-each-step", "after-each-gate-block"])
SIMPLE_NOISE = st.builds(
    NoiseModel,
    kind=st.sampled_from(["depolarizing", "dephasing", "amplitude-damping", "unitary-overrotation"]),
    strength=st.floats(0.0, 1.0),
    placement=PLACEMENTS,
)
NOISE = st.one_of(
    st.builds(NoiseModel, placement=PLACEMENTS),
    SIMPLE_NOISE,
    st.builds(
        NoiseModel,
        kind=st.just("composite"),
        placement=PLACEMENTS,
        parts=st.lists(SIMPLE_NOISE, min_size=1, max_size=3).map(tuple),
    ),
)
# multiples of pi/8, which survive the file's units of pi rounded to 12 digits
PHI = st.integers(-16, 16).map(lambda k: k / 8 * np.pi)
EXPERIMENT_CONFIGS = st.builds(
    ExperimentConfig,
    rb=st.builds(
        RBConfig,
        protocol=st.sampled_from(PROTOCOLS),
        lengths=st.lists(st.integers(1, 10**4), min_size=1, max_size=6, unique=True).map(tuple),
        sequences_per_length=st.integers(1, 1000),
        shots_per_sequence=st.integers(1, 10**6),
        noise=NOISE,
        noise_inv=st.none() | NOISE,
        instrument=st.builds(
            InstrumentConfig, bias=st.floats(-0.5, 0.5), inject_randomness=st.booleans()
        ),
        spam=st.builds(SpamModel, prep_shrink=st.floats(0.0, 1.0), effect_bias=st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        design_phis=st.tuples(PHI, PHI),
        clifford_mode=st.sampled_from(CLIFFORD_MODES),
    ),
    # a config's output name holds no NUL, which no path can hold
    output=st.none() | st.text(min_size=1).filter(lambda name: "\0" not in name),
    verify_first=st.booleans(),
)

# a config whose noise has a dependence map, which no file can hold
DEPENDENT = RBConfig(
    protocol="clifford-mbqc",
    lengths=(1,),
    sequences_per_length=1,
    shots_per_sequence=1,
    noise=NoiseModel(kind="depolarizing", strength=0.9, dependence=lambda t, m: NoiseModel()),
)


class TestConfigRoundTrip:
    def test_dict_to_config_to_dict(self):
        cfg = config_from_dict(dict(SAMPLE))
        assert config_to_dict(cfg) == SAMPLE

    def test_config_to_dict_to_config(self):
        rb = RBConfig(
            protocol="derandomized-mbqc",
            lengths=(1, 2, 4),
            sequences_per_length=3,
            shots_per_sequence=9,
            noise=NoiseModel(kind="amplitude-damping", strength=0.05),
            instrument=InstrumentConfig(bias=0.1, inject_randomness=True),
            spam=SpamModel(prep_shrink=0.95, effect_bias=0.02),
            seed=99,
            design_phis=(0.25 * np.pi, 0.0),
        )
        cfg = ExperimentConfig(rb=rb, output="x.csv", verify_first=True)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    @given(EXPERIMENT_CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_any_config_survives_the_round_trip(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    @given(EXPERIMENT_CONFIGS)
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_json_and_yaml_files_load_to_the_config(self, tmp_path, config):
        d = config_to_dict(config)
        path = tmp_path / "cfg.yaml"
        for text in (json.dumps(d, separators=(",", ":")), json.dumps(d, indent=1)):
            from_yaml = yaml.load(text, Loader=_config_loader())
            if "output" in from_yaml:
                # PyYAML decodes the escaped surrogate pair of a character past
                # U+FFFF as two lone surrogates; JSON decodes the character
                from_yaml["output"] = from_yaml["output"].encode("utf-16", "surrogatepass").decode("utf-16")
            assert parse_json(text) == from_yaml
            path.write_text(text)
            assert load_config(str(path)) == config
        path.write_text(yaml.safe_dump(d))
        if config.output is not None and EXPONENT_FLOAT.fullmatch(config.output):
            # written unquoted, as YAML 1.1 has no such float (see test_exponent_float_read_as_float)
            with pytest.raises(ValueError, match="^output must be a str, got "):
                load_config(str(path))
        else:
            assert load_config(str(path)) == config

    def test_dependence_not_serializable(self):
        with pytest.raises(ValueError):
            config_to_dict(ExperimentConfig(rb=DEPENDENT))


class TestAngleFormatting:
    def test_quarter_turn(self):
        assert format_angle_pi(np.pi / 2) == "0.5"

    def test_symbolic_design_angle(self):
        assert format_angle_pi(float(np.arccos(1 / np.sqrt(3)))) == "acos(1/sqrt3)"


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        cfg = config_from_dict(dict(SAMPLE)).rb
        ds = run_protocol(cfg)
        path = tmp_path / "ds.csv"
        write_dataset(ds, str(path))
        loaded = read_dataset(str(path))
        assert loaded.config == cfg
        assert loaded.records == ds.records
        assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"]

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        ds = run_protocol(config_from_dict(dict(SAMPLE)).rb)
        path = tmp_path / "ds.csv"
        path.write_text("old\n")

        class Failing:  # a row that fails partway through the file, as a full disk would
            def __iter__(self):
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            write_dataset(replace(ds, records=ds.records[:5] + (Failing(),)), str(path))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"]

    def test_version_and_config_embedded(self, tmp_path):
        cfg = config_from_dict(dict(SAMPLE)).rb
        ds = run_protocol(cfg)
        path = tmp_path / "ds.csv"
        write_dataset(ds, str(path))
        text = path.read_text()
        assert f"# version: {__version__}" in text
        assert '"protocol": "clifford-mbqc"' in text

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_path_that_is_not_a_regular_file_is_refused(self, tmp_path):
        path = tmp_path / "ds.csv"
        os.mkfifo(path)  # a device or a pipe would be replaced, not written through
        with pytest.raises(OSError, match="exists and is not a regular file"):
            write_dataset(run_protocol(config_from_dict(dict(SAMPLE)).rb), str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["ds.csv"] and not path.is_file()

    def test_unserializable_config_leaves_no_file(self, tmp_path):
        path = tmp_path / "ds.csv"
        with pytest.raises(ValueError, match="dependence map cannot be serialized"):
            write_dataset(run_protocol(DEPENDENT), str(path))
        assert not path.exists()

    def test_reading_keeps_each_row_once(self, tmp_path):
        # the reader's peak is measured against what the dataset it returns keeps
        rng = np.random.default_rng(5000)
        rb = config_from_dict({**SAMPLE, "lengths": list(range(1, 26)), "sequences_per_length": 200}).rb
        records = tuple(
            SequenceRecord(s, index, int(rng.integers(0, 41)), 40, f"{int(rng.integers(2**48)):012x}")
            for s in rb.lengths
            for index in range(200)
        )
        path = str(tmp_path / "ds.csv")
        write_dataset(RBDataset(config=rb, records=records), path)
        read_dataset(path)  # imports and caches
        tracemalloc.start()
        try:
            dataset = read_dataset(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dataset.records == records
        assert peak <= 3 * kept, (peak, kept)

class TestVerifyCommand:
    def test_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "acos(1/sqrt3)" in out

    def test_corrupted_table_fails(self, monkeypatch, capsys):
        table = dict(mbqcrb.verify.CLIFFORD_ANGLE_TABLE)
        table["H"] = (0, 0, 1)
        monkeypatch.setattr(mbqcrb.verify, "CLIFFORD_ANGLE_TABLE", table)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL clifford-angle-table" in out
        assert "H" in out
        assert out.count("PASS") == 4

    def test_pauli_design_fails(self, monkeypatch, capsys):
        paulis = SimpleNamespace(elements=(I2, X, Y, Z))
        design = mbqcrb.verify.derandomized_design
        # the 2-design check gets the Paulis; the reference check, which names its phis, the design
        monkeypatch.setattr(mbqcrb.verify, "derandomized_design", lambda *phis: design(*phis) if phis else paulis)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL derandomized-2design" in out
        assert out.count("PASS") == 4

    def test_wrong_byproduct_formula_fails(self, monkeypatch, capsys):
        right = mbqcrb.verify.byproduct_bits
        monkeypatch.setattr(mbqcrb.verify, "byproduct_bits", lambda n, m: right(n, m)[::-1])
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL byproduct-bits" in out
        assert out.count("PASS") == 4

    def test_builds_the_design_once(self):
        import mbqcrb.gatesets as gatesets

        gatesets._design.cache_clear()
        assert main(["--quiet", "verify"]) == 0
        assert gatesets._design.cache_info().misses == 1


class TestRunCommand:
    def test_run_writes_dataset(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, output=str(tmp_path / "out.csv"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        ds = read_dataset(str(tmp_path / "out.csv"))
        assert ds.lengths() == (1, 2, 3, 4, 5, 6)
        assert len(ds.records) == 6 * 8

    def test_seed_override_changes_data(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--seed", "12345", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_verify_first_runs_on_the_intact_package(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, verify_first=True)
        out = tmp_path / "ds.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(read_dataset(str(out)).records) == 6 * 8

    @pytest.mark.parametrize(
        "broken", [("clifford-angle-table",), ("clifford-angle-table", "byproduct-bits")], ids=["one", "two"]
    )
    def test_verify_first_stops_the_run_on_failed_checks(self, tmp_path, monkeypatch, capsys, broken):
        table = dict(mbqcrb.verify.CLIFFORD_ANGLE_TABLE)
        table["H"] = (0, 0, 1)
        monkeypatch.setattr(mbqcrb.verify, "CLIFFORD_ANGLE_TABLE", table)
        if "byproduct-bits" in broken:
            right = mbqcrb.verify.byproduct_bits
            monkeypatch.setattr(mbqcrb.verify, "byproduct_bits", lambda n, m: right(n, m)[::-1])
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, verify_first=True)
        out = tmp_path / "ds.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # every failed check is reported, each on one line
        assert [line.partition(": ")[0] for line in captured.err.splitlines()] == [f"FAIL {n}" for n in broken]
        assert not out.exists()

    def test_seeds_at_both_ends_of_the_range_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        for seed in (0, 2**64 - 1):
            out = tmp_path / f"{seed}.csv"
            assert main(["run", "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]) == 0
            assert read_dataset(str(out)).config.seed == seed

    @pytest.mark.parametrize(
        "spelling, value",
        [("1e-3", 1e-3), ("1E-3", 1e-3), ("+1e-3", 1e-3), ("5.e-4", 5e-4), (".5e-3", 5e-4), ("2.5e-2", 0.025)],
    )
    def test_exponent_float_read_as_float(self, tmp_path, spelling, value):
        cfg_path = tmp_path / "cfg.yaml"
        text = yaml.safe_dump({**SAMPLE, "noise": {"kind": "dephasing", "strength": 0.5}})
        cfg_path.write_text(text.replace("strength: 0.5", f"strength: {spelling}"))
        assert load_config(str(cfg_path)).rb.noise.strength == value
        # an output name of that shape is a float too, unless it is quoted
        cfg_path.write_text(f"{text}output: {spelling}\n")
        with pytest.raises(ValueError, match=f"^output must be a str, got {value!r}$"):
            load_config(str(cfg_path))
        cfg_path.write_text(f"{text}output: '{spelling}'\n")
        assert load_config(str(cfg_path)).output == spelling

    def test_json_config_with_an_exponent_float_runs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(json.dumps({**SAMPLE, "noise": {"kind": "dephasing", "strength": 1e-05}}))
        assert '"strength": 1e-05' in cfg_path.read_text()
        assert main(["oracle", "--config", str(cfg_path)]) == 0
        assert load_config(str(cfg_path)).rb.noise.strength == 1e-05

    def test_merged_key_may_be_overridden(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "protocol: clifford-mbqc\nlengths: [1, 2]\nsequences_per_length: 2\n"
            "shots_per_sequence: 10\nnoise: &dep {kind: depolarizing, strength: 0.9}\n"
            "noise_inv:\n  <<: *dep\n  strength: 0.8\n"
        )
        rb = load_config(str(cfg_path)).rb
        assert (rb.noise.strength, rb.noise_inv.strength) == (0.9, 0.8)

    @pytest.mark.parametrize("via", ["--out", "output", "default", "--out-through-a-symlinked-directory"])
    def test_output_that_is_the_config_rejected(self, tmp_path, monkeypatch, capsys, via):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path)
        name = "dataset.csv" if via == "default" else "cfg.json"
        text = json.dumps({**SAMPLE, "output": name} if via == "output" else SAMPLE)
        pathlib.Path(name).write_text(text)
        out = {"--out": [str(tmp_path / name)], "--out-through-a-symlinked-directory": [f"link/{name}"]}
        out = ["--out", *out[via]] if via in out else []
        assert main(["run", "--config", name, *out]) == 1
        written = out[-1] if out else name
        assert capsys.readouterr() == ("", f"invalid output: {written} would replace the input {name}\n")
        assert sorted(os.listdir()) == [name, "link"] and pathlib.Path(name).read_text() == text

    def test_symlink_to_the_config_replaced(self, tmp_path, monkeypatch):
        # a symlink at the output path is an entry of its own: run replaces it, not the config
        monkeypatch.chdir(tmp_path)
        write_sample_config(tmp_path / "cfg.yaml")
        text = pathlib.Path("cfg.yaml").read_text()
        pathlib.Path("out.csv").symlink_to("cfg.yaml")
        assert main(["--quiet", "run", "--config", "cfg.yaml", "--out", "out.csv"]) == 0
        assert not pathlib.Path("out.csv").is_symlink() and pathlib.Path("cfg.yaml").read_text() == text
        assert read_dataset("out.csv").config.seed == SAMPLE["seed"]

    def test_bias_warning_recorded(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(
            cfg_path,
            protocol="derandomized-mbqc",
            instrument={"bias": 0.1, "inject_randomness": False},
        )
        out = tmp_path / "w.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert read_dataset(str(out)).warnings


class TestFitCommand:
    def _make_dataset(self, tmp_path, **overrides):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, **overrides)
        out = tmp_path / "ds.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out

    def test_fit_report_and_curve(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        assert main(["fit", str(out), "--resamples", "100"]) == 0
        report_path = str(out) + ".fit.yaml"
        with open(report_path) as fh:
            report = yaml.safe_load(fh)
        assert report["protocol"] == "clifford-mbqc"
        assert report["seed"] == 7
        assert report["version"] == __version__
        assert 0.0 <= report["p"] <= 1.0
        assert report["avg_fidelity"] == pytest.approx((1 + report["p"]) / 2)
        assert len(report["ci_p"]) == 2
        curve = (tmp_path / "ds.csv.fit.yaml.curve.csv").read_text().splitlines()
        assert curve[3] == "s,mean,stderr,model"
        assert len(curve) == 4 + 6

    def test_noiseless_dataset_flags_degenerate(self, tmp_path):
        out = self._make_dataset(tmp_path, noise={"kind": "none"})
        assert main(["fit", str(out), "--resamples", "0"]) == 0
        with open(str(out) + ".fit.yaml") as fh:
            report = yaml.safe_load(fh)
        assert report["p"] == 1.0
        assert report["degenerate"] or report["clamped"]

    def test_dataset_that_is_not_utf8_named_by_its_path(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        # past the first 8 KiB, so the position is the byte's offset in the
        # whole file, not in the chunk a buffered read decodes
        data = out.read_bytes() + b"\n" * 10000 + b"\xff\n"
        out.write_bytes(data)
        message = (
            f"{out} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            f"in position {len(data) - 2}: invalid start byte"
        )
        with pytest.raises(ValueError) as raised:
            read_dataset(str(out))
        assert str(raised.value) == message
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        assert capsys.readouterr().err == f"invalid dataset: {message}\n"
        assert not (tmp_path / "ds.csv.fit.yaml").exists()

    def test_failed_report_move_leaves_neither_file(self, tmp_path, monkeypatch, capsys):
        out = self._make_dataset(tmp_path)
        report = str(tmp_path / "r.yaml")
        moved, real_replace = [], os.replace

        def replace_but_the_report(src, dst):
            moved.append(dst)
            if dst == report:
                raise PermissionError(13, "Permission denied", dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_but_the_report)
        capsys.readouterr()
        assert main(["fit", str(out), "--resamples", "0", "--out", report]) == 2
        assert capsys.readouterr().err == f"cannot write report: [Errno 13] Permission denied: '{report}'\n"
        assert moved == [report + ".curve.csv", report]  # the table was in place, and is removed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "ds.csv"]

    @pytest.mark.parametrize(
        "argv, target, prefix",
        [("run --config cfg.yaml --out new.csv", "mbqcrb.cli.run_protocol", "invalid experiment"),
         ("fit ds.csv --resamples 0 --out r.yaml", "mbqcrb.fitting.fit_decay", "cannot fit")],
        ids=["run", "fit"],
    )
    def test_memory_error_without_a_message_named(self, tmp_path, monkeypatch, capsys, argv, target, prefix):
        # Python's own MemoryError, raised while building many small objects, has no message
        self._make_dataset(tmp_path)
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(target, out_of_memory)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(shlex.split(argv)) == 1
        assert capsys.readouterr() == ("", f"{prefix}: MemoryError\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "ds.csv"]

    @pytest.mark.parametrize(
        "dataset, out",
        [("ds.csv", "ds.csv"), ("ds.csv", "link/ds.csv"), ("r.curve.csv", "r")],
        ids=["report", "report-through-a-symlinked-directory", "curve-table"],
    )
    def test_output_that_is_the_dataset_rejected(self, tmp_path, monkeypatch, capsys, dataset, out):
        monkeypatch.chdir(tmp_path)
        self._make_dataset(tmp_path).rename(dataset)
        (tmp_path / "link").symlink_to(tmp_path)
        before = sorted(tmp_path.iterdir()), pathlib.Path(dataset).read_bytes()
        capsys.readouterr()
        assert main(["fit", dataset, "--resamples", "0", "--out", out]) == 1
        written = out if out.endswith(dataset) else f"{out}.curve.csv"
        assert capsys.readouterr() == ("", f"invalid output: {written} would replace the input {dataset}\n")
        assert (sorted(tmp_path.iterdir()), pathlib.Path(dataset).read_bytes()) == before

    @pytest.mark.parametrize("link", ["r.yaml", "r.yaml.curve.csv"], ids=["report", "curve-table"])
    def test_symlink_to_the_dataset_replaced(self, tmp_path, monkeypatch, link):
        # a symlink at an output path is an entry of its own: fit replaces it, not the dataset
        monkeypatch.chdir(tmp_path)
        before = self._make_dataset(tmp_path).read_bytes()
        pathlib.Path(link).symlink_to("ds.csv")
        assert main(["--quiet", "fit", "ds.csv", "--resamples", "0", "--out", "r.yaml"]) == 0
        assert pathlib.Path("ds.csv").read_bytes() == before
        assert not any(pathlib.Path(p).is_symlink() for p in ("r.yaml", "r.yaml.curve.csv"))
        assert yaml.safe_load(pathlib.Path("r.yaml").read_text())["protocol"] == SAMPLE["protocol"]

    def test_shuffled_rows_fit_the_same(self, tmp_path):
        out = self._make_dataset(tmp_path)
        first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
        assert main(["--quiet", "fit", str(out), "--out", str(first)]) == 0
        order = np.random.default_rng(5).permutation(6 * 8)
        assert np.any(order != np.arange(6 * 8))
        self._edit(out, edit_rows(lambda rows: [rows[k] for k in order]))
        assert main(["--quiet", "fit", str(out), "--out", str(second)]) == 0
        for suffix in ("", ".curve.csv"):
            assert (tmp_path / f"first.yaml{suffix}").read_bytes() == (tmp_path / f"second.yaml{suffix}").read_bytes()

    @pytest.mark.parametrize(
        "moved",
        [("# config: ", "# warnings: "), ("# version: ", "# config: ", "# warnings: ")],
        ids=["config-and-warnings", "version-config-and-warnings"],
    )
    @pytest.mark.parametrize("to", ["below-the-rows", "between-the-rows"])
    def test_preamble_lines_anywhere_read_the_same(self, tmp_path, moved, to):
        out = self._make_dataset(tmp_path)
        before = read_dataset(str(out))
        lines = out.read_text().splitlines(keepends=True)
        preamble = [line for line in lines if line.startswith(moved)]
        assert len(preamble) == len(moved)
        rest = [line for line in lines if line not in preamble]
        k = len(rest) if to == "below-the-rows" else len(rest) - 20
        out.write_text("".join(rest[:k] + ["\n"] + preamble + rest[k:]))
        assert read_dataset(str(out)) == before

    @staticmethod
    def _edit(path, edit):
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")

    @pytest.mark.parametrize("header", ["# mbqcrb-dataset-v1", "# mbqcrb-dataset-v2"])
    def test_both_dataset_headers_read(self, tmp_path, header):
        out = self._make_dataset(tmp_path)
        self._edit(out, replaced("# mbqcrb-dataset-v2\n", header + "\n"))
        assert len(read_dataset(str(out)).records) == 6 * 8

    def test_missing_row_and_single_sequence_length_fitted(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        def thin(rows):
            fields = [row.split(",") for row in rows]
            return [
                row
                for row, (s, index, *_) in zip(rows, fields)
                if not (s == "2" and index == "3") and (s != "6" or index == "0")
            ]

        self._edit(out, edit_rows(thin))
        ds = read_dataset(str(out))
        assert [ds.survival_fractions(s).size for s in ds.lengths()] == [8, 7, 8, 8, 8, 1]
        assert main(["fit", str(out), "--resamples", "100"]) == 0
        with open(str(out) + ".fit.yaml") as fh:
            report = yaml.safe_load(fh)
        assert report["ci_p"][0] <= report["ci_p"][1]


# Noise sections of every kind, one with an exponent float and one with
# parts nested in a part.
SWEEP_NOISES = [
    NoiseModel(),
    NoiseModel(kind="depolarizing", strength=0.9),
    NoiseModel(kind="dephasing", strength=1e-05, placement=AFTER_EACH_STEP),
    NoiseModel(kind="amplitude-damping", strength=0.05),
    NoiseModel(kind="unitary-overrotation", strength=0.1),
    NoiseModel(
        kind="composite",
        parts=(
            NoiseModel(kind="dephasing", strength=0.02),
            NoiseModel(kind="composite", parts=(NoiseModel(kind="amplitude-damping", strength=0.01),)),
        ),
    ),
]

WARNING_TEXT = st.one_of(
    st.sampled_from(
        [_BIAS_WARNING, "yes", "1.0", ": ", "- item", "-1", "\x7f", "naïve ünïcode ☃ 😀", "x " * 50,
         "", "null", "~", "#", "'", '"', "\\", "a\nb", "a\rb", " lead", "trail ", "\t", "\x85",
         "\u2028", "\ufeff", "\ud800", "\ud83d\ude00"]
    ),
    st.text(st.characters() | st.sampled_from("\x7f\x85\u2028\u2029\ud800\udfff\ufffe\uffff")),
)
REPORT_FLOATS = st.floats(allow_nan=False)


class TestFitReportFile:
    """``fit`` writes its report without PyYAML, in the bytes of ``yaml.safe_dump``."""

    @staticmethod
    def _fit(tmp_path, monkeypatch, rb, resamples="0"):
        """The report ``fit`` builds for a run of ``rb``, and the bytes of its file."""
        reports = []

        def record(path, report):
            reports.append(report)
            write_fit_report(path, report)

        monkeypatch.setattr(mbqcrb.files, "write_fit_report", record)
        dataset, out = tmp_path / "ds.csv", tmp_path / "ds.fit.yaml"
        write_dataset(run_protocol(rb), str(dataset))
        assert main(["--quiet", "fit", str(dataset), "--resamples", resamples, "--out", str(out)]) == 0
        return reports[0], out.read_bytes()

    @staticmethod
    def _dumped(report) -> bytes:
        return ("# mbqcrb-fit-v1\n" + yaml.safe_dump(report, sort_keys=False)).encode("utf-8")

    @pytest.mark.parametrize("mode", CLIFFORD_MODES)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_bytes_equal_safe_dump(self, tmp_path, monkeypatch, protocol, mode):
        seen = set()
        for noise in SWEEP_NOISES:
            for noise_inv in (None, NoiseModel(kind="depolarizing", strength=0.95)):
                for inject in (False, True):
                    rb = RBConfig(
                        protocol=protocol,
                        lengths=(1, 2, 3, 5),
                        sequences_per_length=3,
                        shots_per_sequence=20,
                        noise=noise,
                        noise_inv=noise_inv,
                        instrument=InstrumentConfig(bias=0.05, inject_randomness=inject),
                        seed=2**64 - 1,
                        clifford_mode=mode,
                    )
                    report, written = self._fit(tmp_path, monkeypatch, rb)
                    assert written == self._dumped(report)
                    seen.update(report["warnings"])
                    if report["degenerate"]:
                        seen.add("degenerate")
        # the sweep reached a degenerate fit, and the bias warning on the derandomized protocol
        assert "degenerate" in seen
        assert (_BIAS_WARNING in seen) == (protocol == "derandomized-mbqc")

    def test_bootstrap_report_bytes_equal_safe_dump(self, tmp_path, monkeypatch):
        rb = config_from_dict(SAMPLE).rb
        report, written = self._fit(tmp_path, monkeypatch, rb, resamples="200")
        assert len(report["ci_p"]) == 2 and report["resamples"] == 200
        assert written == self._dumped(report)

    def test_clamped_report_bytes_equal_safe_dump(self, tmp_path, monkeypatch):
        # a fit clamped at p = 0, which real survival data rarely gives
        import mbqcrb.fitting

        fit_decay = mbqcrb.fitting.fit_decay
        monkeypatch.setattr(
            mbqcrb.fitting, "fit_decay", lambda points: replace(fit_decay(points), p=0.0, clamped=True)
        )
        report, written = self._fit(tmp_path, monkeypatch, config_from_dict(SAMPLE).rb)
        assert (report["p"], report["clamped"], report["degenerate"]) == (0.0, True, False)
        assert written == self._dumped(report)

    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, 2**64 - 1, 0.0, -0.0, 0.5, 1e-05, 1e17, 1.5e300, 5e-324,
         float("inf"), float("-inf"), float("nan"), *sorted(_PLAIN_STRINGS)],
    )
    def test_scalar_as_safe_dump_writes_it(self, value):
        # each of the plain strings, too, is one that PyYAML writes plain
        assert yaml.safe_dump(value) == f"{_yaml_scalar(value)}\n...\n"

    @given(
        config=EXPERIMENT_CONFIGS,
        floats=st.lists(REPORT_FLOATS, min_size=5, max_size=5),
        ci=st.none() | st.lists(REPORT_FLOATS, min_size=2, max_size=2),
        resamples=st.integers(0, 2**64 - 1),
        flags=st.tuples(st.booleans(), st.booleans()),
        warnings=st.lists(WARNING_TEXT, max_size=3),
    )
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_any_report_reads_back(self, tmp_path, config, floats, ci, resamples, flags, warnings):
        a0, b0, p, avg_fidelity, residual_norm = floats
        report = {
            "version": __version__,
            "protocol": config.rb.protocol,
            "seed": config.rb.seed,
            "lengths": list(config.rb.lengths),
            "a0": a0,
            "b0": b0,
            "p": p,
            "avg_fidelity": avg_fidelity,
            "residual_norm": residual_norm,
            "ci_p": ci,
            "resamples": resamples,
            "degenerate": flags[0],
            "clamped": flags[1],
            "config": config_to_dict(replace(config, output=None)),
            "warnings": warnings,
        }
        path = tmp_path / "report.yaml"
        write_fit_report(str(path), report)
        text = path.read_bytes().decode("utf-8")
        assert yaml.safe_load(text) == report
        if set(warnings) <= _PLAIN_STRINGS:
            assert text.encode("utf-8") == self._dumped(report)
        else:  # any other warning is double-quoted on one line
            lines = self._dumped({**report, "warnings": []}).count(b"\n") + len(warnings)
            assert text.count("\n") == lines


class TestOracleCommand:
    def test_prints_values(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        assert main(["oracle", "--config", str(cfg_path), "--length", "2"]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            key, _, val = line.partition(":")
            values[key.strip()] = val.strip()
        assert values["protocol"] == "clifford-mbqc"
        assert float(values["enumerated"]) == pytest.approx(0.5 * 0.9**2 + 0.5, abs=1e-9)
        assert float(values["analytic"]) == pytest.approx(float(values["enumerated"]), abs=1e-9)

    def _printed(self, capsys, cfg_path, *extra) -> str:
        assert main(["oracle", "--config", str(cfg_path), *extra]) == 0
        return capsys.readouterr().out

    def test_single_length_output_format(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        exact = exact_sequence_fidelity(
            "clifford-mbqc", 9, noise=NoiseModel(kind="depolarizing", strength=0.9), noise_inv=NoiseModel()
        )
        assert self._printed(capsys, cfg_path, "--length", "9") == (
            f"protocol: clifford-mbqc\ns: 9\n"
            f"enumerated: {exact.enumerated!r}\nanalytic: {exact.analytic!r}\n"
        )

    def test_every_configured_length_without_length(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, lengths=[3, 1, 40])
        lines = self._printed(capsys, cfg_path).splitlines()
        assert lines[0] == "protocol: clifford-mbqc"
        groups = [lines[k : k + 3] for k in range(1, len(lines), 3)]
        assert [g[0] for g in groups] == ["s: 3", "s: 1", "s: 40"]
        for s, group in zip((3, 1, 40), groups):
            assert group == self._printed(capsys, cfg_path, "--length", str(s)).splitlines()[1:]

    @pytest.mark.parametrize("protocol", ["clifford-mbqc", "derandomized-mbqc"])
    def test_injected_outcomes_use_the_unbiased_oracle(self, tmp_path, capsys, protocol):
        # injection XORs every outcome with a fair coin, so the instrument
        # bias must not weight the oracle's outcome branches
        settings = dict(
            protocol=protocol,
            lengths=[1, 2],
            sequences_per_length=200,
            shots_per_sequence=200,
            noise={"kind": "amplitude-damping", "strength": 0.15, "placement": "after-each-step"},
        )
        injected, unbiased = tmp_path / "injected.yaml", tmp_path / "unbiased.yaml"
        write_sample_config(injected, **settings, instrument={"bias": -0.4, "inject_randomness": True})
        write_sample_config(unbiased, **settings, instrument={"bias": 0.0, "inject_randomness": False})

        def enumerated(cfg_path):
            lines = self._printed(capsys, cfg_path).splitlines()
            return [float(line.partition(": ")[2]) for line in lines if line.startswith("enumerated:")]

        values = enumerated(injected)
        assert values == enumerated(unbiased)
        dataset = run_protocol(load_config(str(injected)).rb)
        for s, exact in zip((1, 2), values):
            mean, stderr = sequence_fidelity_estimate(dataset, s)
            assert abs(mean - exact) < 5 * stderr, (s, mean, exact, stderr)


class TestUsageErrors:
    """A usage error exits 1, like every other invalid input (see REJECTED):
    argparse's own code, 2, is kept for I/O failures here."""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--help"])
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mbqcrb")


# A cold process imports the mbqcrb that this file imports, and writes UTF-8.
# Every warning is an error in it, so a warning, such as a numpy
# RuntimeWarning or an unclosed file, fails the command that gave it.
COLD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mbqcrb.__file__)), PYTHONIOENCODING="utf-8")
COLD_PYTHON = [sys.executable, "-W", "error"]

# numpy.linalg's decompositions and solvers, each of which calls LAPACK: its
# first call maps about 1 MB of OpenBLAS pages into the process.
LAPACK_ROUTINES = (
    "cholesky", "eig", "eigh", "eigvals", "eigvalsh", "svd", "qr", "solve",
    "lstsq", "inv", "pinv", "det", "slogdet", "matrix_rank",
)
# Child code, run before mbqcrb is imported, that records a call of each of
# them, and of the LAPACK gufuncs behind them, which numpy's own callers
# reach, in ``lapack_calls``, and passes the call through.
RECORD_LAPACK = (
    "import numpy, numpy.linalg\n"
    "from numpy.linalg import _umath_linalg\n"
    "lapack_calls = set()\n"
    "def recorded(name, call):\n"
    "    def recording(*args, **kwargs):\n"
    "        lapack_calls.add(name)\n"
    "        return call(*args, **kwargs)\n"
    "    return recording\n"
    f"for name in {LAPACK_ROUTINES!r}:\n"
    "    setattr(numpy.linalg, name, recorded(f'linalg.{name}', getattr(numpy.linalg, name)))\n"
    "for name in dir(_umath_linalg):\n"
    "    if isinstance(getattr(_umath_linalg, name), numpy.ufunc):\n"
    "        setattr(_umath_linalg, name, recorded(f'gufunc {name}', getattr(_umath_linalg, name)))\n"
)

# The loading contract. A row is a step of a chain of commands run in one
# process, and gives the modules that must not be loaded after it and those
# that must be, which show that the check sees a load. JSON and YAML name the
# kind of every config the process has read. Two names stand for what is not
# a module: "clifford_table" for a built Clifford table, which verify must
# not build although each step first builds the Clifford group and the
# derandomized design, and "lapack" for a call to LAPACK during the step,
# whose first call maps about 1 MB of OpenBLAS pages into a process. No step
# loads the literal wire, mbqcrb.wire. Only run and fit compile the file
# formats, mbqcrb.files, and only verify and a verify_first run compile the
# verification suite, mbqcrb.verify.
RUN_AND_FIT = ("hashlib", "_hashlib", "numpy.random", "csv", "_csv", "mbqcrb.files")
LOADING = {
    "import mbqcrb": (["lapack", *(f"mbqcrb.{m.name}" for m in pkgutil.iter_modules(mbqcrb.__path__))], []),
    "verify": (["lapack", "mbqcrb.fitting", "yaml", "clifford_table", *RUN_AND_FIT], ["mbqcrb.verify"]),
    "oracle JSON": (["lapack", "mbqcrb.fitting", "mbqcrb.verify", "yaml", *RUN_AND_FIT], []),
    "oracle YAML": (["lapack", "mbqcrb.fitting", "mbqcrb.verify", *RUN_AND_FIT], ["yaml"]),
    "run JSON": (["lapack", "mbqcrb.fitting", "mbqcrb.verify", "yaml"], ["hashlib", "csv", "mbqcrb.files"]),
    "run YAML": (["lapack", "mbqcrb.fitting", "mbqcrb.verify"], ["hashlib", "csv", "mbqcrb.files"]),
    "run verify_first": (["lapack", "mbqcrb.fitting", "yaml"], ["mbqcrb.verify", "mbqcrb.files"]),
    "fit JSON": (["lapack", "mbqcrb.verify", "yaml", "numpy.ma"], ["mbqcrb.fitting", "mbqcrb.files"]),
    "fit YAML": (["lapack", "mbqcrb.verify", "numpy.ma"], ["mbqcrb.fitting", "mbqcrb.files"]),
}
EXAMPLES = sorted(CONFIGS.glob("*.yaml"))
# A run of which about half of fit's 200 bootstrap resamples fit with a0 = 1 or b0 = 0.
BOUND = {
    "protocol": "clifford-mbqc",
    "lengths": [1, 2, 4, 8],
    "sequences_per_length": 20,
    "shots_per_sequence": 50,
    "seed": 2016,
    "noise": {"kind": "depolarizing", "strength": 0.9},
    "noise_inv": {"kind": "none"},
}
# Each chain's steps, a row and an argv (None stands for ``import mbqcrb``).
# A step can only add modules, so a chain orders its steps to keep out what a
# later row forbids, and verify, which loads mbqcrb.verify, has a chain of its
# own. ../<name>.yaml holds YAML in the yaml chain and JSON in the others: the
# text, not the name, chooses the reader.
CHAINS = {
    "verify": [
        ("verify", ["verify"]),
        ("run verify_first", ["run", "--config", "../verify_first.yaml", "--out", "checked.csv"]),
    ],
    "json": [
        ("import mbqcrb", None),
        *[("oracle JSON", ["oracle", "--config", f"../{p}.yaml"]) for p in PROTOCOLS],
        *[("run JSON", ["run", "--config", f"../{p}.yaml", "--out", f"{p}.csv"]) for p in (*PROTOCOLS, "bound")],
        *[("fit JSON", ["fit", "circuit.csv", "--resamples", r, "--out", f"{r}.yaml"]) for r in ("0", "200")],
        ("fit JSON", ["fit", "bound.csv", "--resamples", "200", "--out", "bound.yaml"]),
    ],
    "yaml": [
        *[("oracle YAML", ["oracle", "--config", f"../{p}.yaml"]) for p in PROTOCOLS],
        # every configured length, and lengths far past the enumerable ones
        *[
            ("oracle YAML", ["oracle", "--config", str(c), *length])
            for c in EXAMPLES
            for length in ([], ["--length", "200"], ["--length", "10000"])
        ],
        *[("run YAML", ["run", "--config", str(c), "--out", f"{c.stem}.csv"]) for c in EXAMPLES],
        *[("fit YAML", ["fit", f"{c.stem}.csv"]) for c in EXAMPLES],
    ],
}
# Runs the JSON list of argvs in argv[1] with LAPACK calls recorded; prints
# what numpy loads and, after each step, the modules, Clifford table size,
# whether the step called LAPACK, and its output.
CHILD = RECORD_LAPACK + """
import sys
eager = sorted(sys.modules)
# the record sees a call of a routine, and one that reaches only a gufunc
numpy.linalg.det(numpy.eye(2))
assert {"linalg.det", "gufunc det"} <= lapack_calls, lapack_calls
lapack_calls.clear()
numpy.linalg.cond(numpy.eye(2))
assert lapack_calls and all(call.startswith("gufunc ") for call in lapack_calls), lapack_calls
import contextlib, io, json
records = []
for argv in json.loads(sys.argv[1]):
    lapack_calls.clear()
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        if argv is None:
            import mbqcrb
        else:
            from mbqcrb import cli
            cli.clifford_group(), cli.derandomized_design()
            assert cli.main(argv) == 0, argv
    gatesets = sys.modules.get("mbqcrb.gatesets")
    built = gatesets.clifford_table.cache_info().currsize if gatesets else 0
    records.append([sorted(sys.modules), built, bool(lapack_calls), printed.getvalue()])
print(json.dumps([eager, records]))
"""


class TestColdLoading:
    """Each step loads what its row allows and keeps its output when LAPACK
    calls are recorded."""

    @pytest.mark.parametrize("chain", CHAINS)
    def test_chain(self, tmp_path, monkeypatch, capsys, chain):
        configs = {**{p: {**SAMPLE, "protocol": p} for p in PROTOCOLS}, "bound": BOUND}
        configs["verify_first"] = {**SAMPLE, "verify_first": True}
        for name, data in configs.items():
            (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(data) if chain == "yaml" else json.dumps(data))
        plain, patched = tmp_path / "plain", tmp_path / "patched"
        plain.mkdir()
        patched.mkdir()
        cold = [*COLD_PYTHON, "-c", CHILD, json.dumps([argv for _, argv in CHAINS[chain]])]
        with subprocess.Popen(
            cold, cwd=patched, env=COLD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as child:
            # the same steps in this process while the child runs
            monkeypatch.chdir(plain)
            here = []
            for _, argv in CHAINS[chain]:
                capsys.readouterr()
                assert argv is None or main(argv) == 0, argv
                here.append(capsys.readouterr().out)
            out, err = child.communicate()
        assert (child.returncode, err) == (0, "")
        eager, records = json.loads(out)
        for (row, argv), (modules, built, called, printed), kept in zip(CHAINS[chain], records, here, strict=True):
            loaded = {*modules, *(["clifford_table"] if built else []), *(["lapack"] if called else [])}
            # what a bare ``import numpy`` loads (numpy 1.x: numpy.random, hashlib) cannot be kept out
            forbidden = {*LOADING[row][0], "mbqcrb.wire"}.difference(eager)
            assert sorted(loaded & forbidden) == [], (row, argv)
            assert loaded.issuperset(LOADING[row][1]), (row, argv)
            assert kept == printed, argv
        assert entries(plain) == entries(patched)


class Rejected(NamedTuple):
    command: str  # the argv, split as a shell splits it
    code: int
    err: str  # a pattern that the whole of stderr matches
    files: dict = {}
    closed_stdout: dict | None = None  # the environment of a row whose stdout is a closed pipe
    writes: tuple = ()  # what such a row writes before it prints


def usage(command: str, message: str, tail: str = "") -> str:
    """The stderr of an argparse usage error: the usage text, then the error line."""
    prog = f"mbqcrb {command}".strip()
    return rf"usage: {prog} (?s:.*)\n{prog}: error: {re.escape(message)}{tail}\n"


def line(message: str) -> str:
    return re.escape(message) + "\n"


NESTED = "the file is nested too deeply to read"
ENOENT = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
UNUSABLE_OUTPUT = "output must be a non-empty file name the file system can encode, with no NUL; got "
# What each field of a config file must hold, in the words of its rejection:
# a phrase, a tuple of choices, or a list of one phrase for a list of those.
MUST_HOLD = {
    **dict.fromkeys(["sequences_per_length", "shots_per_sequence", "seed"], "int"),
    **dict.fromkeys(["noise", "noise_inv", "instrument", "spam"], "a key/value mapping"),
    **dict.fromkeys(["strength", "bias", "prep_shrink", "effect_bias"], "a finite float"),
    "inject_randomness": "a bool",
    "lengths": ["int"],
    "design_phis": ["a finite float"],
    "parts": ["a key/value mapping"],
    "protocol": PROTOCOLS,
    "clifford_mode": CLIFFORD_MODES,
    "kind": NOISE_KINDS,
    "placement": (AFTER_EACH_STEP, AFTER_EACH_GATE_BLOCK),
}


def must_hold(what: str, holds, value) -> str:
    """The message that refuses ``value`` for the field ``what``, which must hold ``holds``."""
    if isinstance(holds, list):
        if isinstance(value, list):
            return must_hold(f"{what} entry 1", holds[0], value[0])
        holds = "a list"
    if isinstance(holds, tuple):
        return f"{what} must be one of {', '.join(holds)}; got {value!r}"
    return f"{what} must be {holds}, got {value!r}"


def wrong_types():
    """(name, YAML text, message) for every field of every config section given a
    value of the wrong type. A numeric string is a string, not the number it spells."""
    sections = [
        ("config", RBConfig), ("noise", NoiseModel), ("noise_inv", NoiseModel), ("instrument", InstrumentConfig),
        ("spam", SpamModel),
    ]
    for section, cls in sections:
        for f in fields(cls):
            if f.name == "dependence":  # a callable, which no file can hold
                continue
            for label, value in [("null", None), ("string", "1"), ("list", ["1"]), ("flag", True)]:
                if label == "flag" and f.type in ("bool", bool):
                    continue
                if section == "config":
                    data, what = {**SAMPLE, f.name: value}, f.name
                else:
                    data, what = {**SAMPLE, section: {**SAMPLE[section], f.name: value}}, f"{section} {f.name}"
                yield f"{section}-{f.name}-{label}", yaml.safe_dump(data), must_hold(what, MUST_HOLD[f.name], value)


DEPOLARIZING = {"kind": "depolarizing", "strength": 0.9}
DEPHASING = {"kind": "dephasing", "strength": 0.1}


def bad_config(command: str, text: str, message: str) -> Rejected:
    """``command`` refusing cfg.yaml, which holds ``text``."""
    return Rejected(f"{command} --config cfg.yaml", 1, line(f"invalid config: {message}"), {"cfg.yaml": text})


# The command contract. A row is a command that must be refused. It runs in a
# directory of its own, which holds cfg.json (SAMPLE, with an output name),
# ds.csv (a run of SAMPLE) and the row's files: text, an edit of the
# dataset's text, or None for a directory. The command exits with the row's
# code, prints nothing on stdout, writes a stderr that the row's pattern
# matches, with no traceback, and leaves its directory as it found it. A row
# with ``closed_stdout`` runs as ``python -m mbqcrb.cli`` with that
# environment and stdout a pipe whose reader is gone: only the interpreter's
# exit shows a flush that fails.
REJECTED = {
    # usage errors
    "run-without-config": Rejected("run", 1, usage("run", "the following arguments are required: --config")),
    "unknown-command": Rejected(
        "frobnicate", 1, usage("", "argument command: invalid choice: 'frobnicate'", r" \(choose from [^\n]*\)")
    ),
    # an empty --out is no path: the config's output is not written either
    "run-empty-out": Rejected("run --config cfg.json --out ''", 1, usage("run", "argument --out: expected a path, got ''")),
    "fit-empty-out": Rejected("fit ds.csv --out ''", 1, usage("fit", "argument --out: expected a path, got ''")),
    # an integer option follows the count rule: int() reads all but abc and x as a number
    **{
        f"{command}-{option}-{spelling}": Rejected(
            f"{command} {given} --{option} {shlex.quote(text)}", 1,
            usage(command, f"argument --{option}: invalid int value: {text!r}"),
        )
        for command, given, option, spelling, text in [
            ("oracle", "--config cfg.json", "length", "abc", "abc"),
            ("oracle", "--config cfg.json", "length", "underscore", "1_0"),
            ("oracle", "--config cfg.json", "length", "full-width", "３"),
            ("oracle", "--config cfg.json", "length", "spaces", " 3 "),
            ("run", "--config cfg.json --out out.csv", "seed", "underscore", "8_11"),
            ("run", "--config cfg.json --out out.csv", "seed", "full-width", "８１１"),
            ("fit", "ds.csv --out out.yaml", "resamples", "x", "x"),
            ("fit", "ds.csv --out out.yaml", "resamples", "underscore", "1_00"),
            ("fit", "ds.csv --out out.yaml", "resamples", "plus", "+200"),
        ]
    },
    # configs
    **{
        f"run-seed-{side}": Rejected(
            f"run --config cfg.json --seed {seed} --out out.csv", 1,
            line(f"invalid config: seed must lie in [0, 2**64), got {seed}"),
        )
        for side, seed in [("below", -1), ("above", 2**64)]
    },
    **{
        f"{command.split()[0]}-{name}": bad_config(command, text, message)
        for command in ("run --out out.csv", "oracle")
        for name, text, message in [
            (
                "unparsable-yaml", "protocol: [circuit\n",
                "while parsing a flow sequence\n"
                '  in "cfg.yaml", line 1, column 11\n'
                "expected ',' or ']', but got '<stream end>'\n"
                '  in "cfg.yaml", line 2, column 1',
            ),
            ("lengths-600-lists", f"protocol: circuit\nlengths: {DEEP_LENGTHS}\n", NESTED),
            ("noise-200-composites", DEEP_NOISE, NESTED),
            (
                "unknown-protocol", json.dumps({**SAMPLE, "protocol": "quantum-volume"}),
                "protocol must be one of circuit, clifford-mbqc, derandomized-mbqc; got 'quantum-volume'",
            ),
            (
                "misspelled-noise-key", json.dumps({**SAMPLE, "noise": {"kind": "depolarizing", "strenght": 0.96}}),
                "unknown key in noise: strenght",
            ),
            *[
                (f"output-{name}", text, UNUSABLE_OUTPUT + repr(output))
                for name, text, output in [
                    ("json-lone-surrogate", json.dumps({**SAMPLE, "output": "\ud800.csv"}), "\ud800.csv"),
                    # PyYAML decodes the escaped pair into two lone surrogates
                    ("yaml-surrogate-pair", yaml.safe_dump(SAMPLE) + 'output: "\\ud83d\\ude00.csv"\n', "\ud83d\ude00.csv"),
                    ("nul", json.dumps({**SAMPLE, "output": "a\0.csv"}), "a\0.csv"),
                    ("empty", json.dumps({**SAMPLE, "output": ""}), ""),
                ]
            ],
            # a key repeated in one mapping, at any depth
            *[
                (
                    f"duplicate-key-{name}",
                    "protocol: clifford-mbqc\nlengths: [1, 2]\nsequences_per_length: 2\nshots_per_sequence: 10\n" + text,
                    message,
                )
                for name, text, message in [
                    ("top-level", "seed: 1\nseed: 7\n", "duplicate key 'seed' (line 6)"),
                    ("nested", "noise:\n  kind: depolarizing\n  strength: 0.9\n  strength: 0.8\n",
                     "duplicate key 'strength' (line 8)"),
                ]
            ],
            # values of the right type that a setting cannot take, each refused
            # where its type is built
            *[
                (name, yaml.safe_dump({**SAMPLE, "protocol": "derandomized-mbqc", **overrides}), message)
                for name, overrides, message in [
                    ("three-phis", {"design_phis": [0.0, 0.0, 0.0]}, "design_phis must hold exactly two angles, got 3"),
                    ("no-phis", {"design_phis": []}, "design_phis must hold exactly two angles, got 0"),
                    # finite in the file's units of pi, but not in radians
                    ("overflowing-phi", {"design_phis": [1.0e308, 0.0]},
                     "design_phis entry 1 is 1e+308 (units of pi), too large to convert to radians"),
                    ("parts-without-composite", {"noise": {**DEPOLARIZING, "parts": [DEPHASING]}},
                     "noise parts are taken only by composite noise, not by depolarizing"),
                    ("none-strength", {"noise": {"kind": "none", "strength": 0.3}},
                     "noise strength is not taken by none noise"),
                    ("composite-strength", {"noise_inv": {"kind": "composite", "strength": 0.3, "parts": [DEPHASING]}},
                     "noise_inv strength is not taken by composite noise"),
                    ("depolarizing-range", {"noise": {"kind": "depolarizing", "strength": 1.5}},
                     "noise depolarizing parameter must lie in [0, 1], got 1.5"),
                    ("dephasing-range", {"noise": {"kind": "dephasing", "strength": -0.2}},
                     "noise flip probability must lie in [0, 1], got -0.2"),
                    ("damping-range", {"noise": {"kind": "amplitude-damping", "strength": 1.01}},
                     "noise damping probability must lie in [0, 1], got 1.01"),
                    ("part-range", {"noise": {"kind": "composite", "parts": [DEPHASING, {**DEPOLARIZING, "strength": 2}]}},
                     "noise parts entry 2 depolarizing parameter must lie in [0, 1], got 2.0"),
                ]
            ],
        ]
    },
    **{
        f"run-{name}": bad_config("run --out out.csv", text, message)
        for name, text, message in [
            *[
                (name, yaml.safe_dump({**SAMPLE, **overrides}), message)
                for name, overrides, message in [
                    ("lengths-a-number", {"lengths": 5}, "lengths must be a list, got 5"),
                    ("length-entry-null", {"lengths": [1, None]}, "lengths entry 2 must be int, got None"),
                    ("shots-a-word", {"shots_per_sequence": "many"}, "shots_per_sequence must be int, got 'many'"),
                    ("fractional-count", {"sequences_per_length": 2.5}, "sequences_per_length must be int, got 2.5"),
                    ("parts-a-number", {"noise": {"kind": "composite", "parts": 3}}, "noise parts must be a list, got 3"),
                    ("phi-null", {"design_phis": [None, 0.0]}, "design_phis entry 1 must be a finite float, got None"),
                    ("string-flag", {"instrument": {"inject_randomness": "false"}},
                     "instrument inject_randomness must be a bool, got 'false'"),
                    ("output-a-number", {"output": 5}, "output must be a str, got 5"),
                    # a seed outside [0, 2**64) used to alias a seed inside it
                    ("config-seed-below", {"seed": -1}, "seed must lie in [0, 2**64), got -1"),
                    ("config-seed-above", {"seed": 2**64}, f"seed must lie in [0, 2**64), got {2**64}"),
                    # a key that a section does not take, at any depth
                    ("unknown-key-in-config", {"sequences": 8}, "unknown key in config: sequences"),
                    ("unknown-key-in-spam", {"spam": {"prep_shrink": 1.0, "effect_bais": 0.0}},
                     "unknown key in spam: effect_bais"),
                    ("unknown-key-in-instrument", {"instrument": {"bias": 0.0, "inject": True}},
                     "unknown key in instrument: inject"),
                    ("unknown-key-in-noise-inv", {"noise_inv": {"kind": "none", "placment": "after-each-step"}},
                     "unknown key in noise_inv: placment"),
                    ("unknown-key-in-a-part", {"noise": {"kind": "composite", "parts": [{**DEPHASING, "strengh": 0.1}]}},
                     "unknown key in noise parts entry 1: strengh"),
                    ("spam-a-number", {"spam": 0.98}, "spam must be a key/value mapping, got 0.98"),
                ]
            ],
            *wrong_types(),
            ("keys-missing", "protocol: circuit\n",
             "config is missing required keys: lengths, sequences_per_length, shots_per_sequence"),
        ]
    },
    # text that the JSON rule refuses is read as YAML, whose messages differ
    **{
        f"oracle-json-{name}-read-as-yaml": bad_config("oracle", text, message)
        for name, text, message in [
            ("repeated-key", json.dumps(SAMPLE)[:-1] + ', "seed": 8}', "duplicate key 'seed' (line 1)"),
            *[
                (name, json.dumps({**SAMPLE, "noise": {**DEPHASING, "strength": 0.5}}).replace("0.5", constant),
                 f"noise strength must be a finite float, got {constant!r}")
                for name, constant in [("nan", "NaN"), ("infinity", "-Infinity")]
            ],
        ]
    },
    # 10**15 elements need more address space than a 64-bit process has, so
    # the allocation fails at once without touching memory
    **{
        f"run-{name}-too-large": Rejected(
            "run --config cfg.json --out out.csv", 1, r"invalid experiment: Unable to allocate [^\n]*\n",
            {"cfg.json": json.dumps({**SAMPLE, **overrides})},
        )
        for name, overrides in [
            ("clifford-length", {"lengths": [1, 10**15]}),
            ("derandomized-shots", {"protocol": "derandomized-mbqc", "shots_per_sequence": 10**15}),
            ("circuit-shots", {"protocol": "circuit", "shots_per_sequence": 10**15}),
            *[
                (f"{protocol.split('-')[0]}-sequences", {"protocol": protocol, "sequences_per_length": 10**15})
                for protocol in PROTOCOLS
            ],
        ]
    },
    **{
        f"oracle-length-{name}": Rejected(
            f"oracle --config cfg.json --length {n}", 1, line("cannot evaluate the oracle: sequence length must be >= 1")
        )
        for name, n in [("zero", 0), ("negative", -1)]
    },
    # datasets
    **{
        f"fit-resamples-{name}": Rejected(
            f"fit ds.csv --resamples {n}", 1, line(f"invalid --resamples {n}: use 0 (no bootstrap) or >= 100")
        )
        for name, n in [("too-few", 50), ("negative", -3)]
    },
    "fit-resamples-too-many": Rejected(
        f"fit ds.csv --resamples {10**15} --out out.yaml", 1, r"cannot fit: Unable to allocate [^\n]*\n"
    ),
    "fit-rows-at-two-lengths": Rejected(
        "fit ds.csv --resamples 0", 1, line("cannot fit: fitting requires at least 3 distinct sequence lengths"),
        {"ds.csv": edit_rows(lambda rows: [row for row in rows if row.startswith(("1,", "2,"))])},
    ),
    **{
        # fit refusing ds.csv after an edit, with a message after the file's name
        f"fit-{name}": Rejected("fit ds.csv --resamples 0", 1, line(f"invalid dataset: ds.csv{message}"), {"ds.csv": edit})
        for name, edit, message in [
            # the header, the column header and the config line
            *[
                (f"header-{name}", replaced("# mbqcrb-dataset-v2\n", header),
                 f" does not start with a dataset header (# mbqcrb-dataset-v1 or # mbqcrb-dataset-v2): {first!r}")
                for name, header, first in [
                    ("foreign", "# something-else-entirely\n", "# something-else-entirely"),
                    ("future", "# mbqcrb-dataset-v3\n", "# mbqcrb-dataset-v3"),
                    ("missing", "", f"# version: {__version__}"),
                ]
            ],
            ("without-column-header", without("s,sequence_index"), " is not a recognized dataset file"),
            ("without-config", without("# config: "), " has no embedded config"),
            # the column header is checked first
            *[
                (f"without-column-header-{name}", without("s,sequence_index", "# config: ", *rows),
                 " is not a recognized dataset file")
                for name, rows in [("and-config", ()), ("config-and-rows", [f"{s}," for s in range(1, 7)])]
            ],
            # the JSON lines, by the rule of config files: json.loads and the
            # preamble would keep the last of a repeated key or line
            *[
                (f"{key}-{name}", replaced(old, new), f": the {key} line{message}")
                for key, name, old, new, message in [
                    ("config", "key-twice", "# config: {", '# config: {"seed": 99, ', ": duplicate key 'seed'"),
                    ("config", "inner-key-twice", '"noise": {', '"noise": {"strength": 0.5, ', ": duplicate key 'strength'"),
                    ("config", "line-twice", "# warnings:", "# config: {}\n# warnings:", " appears more than once"),
                    ("warnings", "line-twice", "# warnings: []", "# warnings: []\n# warnings: []", " appears more than once"),
                    ("warnings", "json", "# warnings: []", "# warnings: [,]", ": Expecting value: line 1 column 2 (char 1)"),
                    # valid JSON, but a setting the config refuses
                    ("config", "lengths-repeated", '"lengths": [1, ', '"lengths": [1, 1, ', ": lengths must be distinct"),
                    ("config", "nan", '"strength": 0.9', '"strength": NaN', ": NaN is not a JSON number"),
                    ("config", "empty-output", "# config: {", '# config: {"output": "", ', f": {UNUSABLE_OUTPUT}''"),
                ]
            ],
            *[
                (f"warnings-{name}", preamble_line("warnings", text),
                 f": the warnings line must hold a JSON list of strings, got {text!r}")
                for name, text in [("null", "null"), ("number", "5"), ("string", '"abc"')]
            ],
            *[
                (f"{key}-{name}", preamble_line(key, text), f": the {key} line is nested too deeply to read")
                for key, name, text in [
                    ("config", "2000-lists", DEEP_JSON),
                    ("config", "noise-200-composites", DEEP_NOISE),
                    ("warnings", "2000-lists", DEEP_JSON),
                ]
            ],
            # a row is named by its data row, the column header being row 0:
            # '#' lines and blank lines among the rows are no data rows
            *[
                (f"{name}-row-{place}", row_at(k, *notes, row), f": data row {k + 1}{message}")
                for name, row, message in [
                    ("non-integer", "2,x,10,40,000000000000",
                     " (2,x,10,40,000000000000) field sequence_index is not an integer: 'x'"),
                    ("over-the-csv-limit", f"2,1,{'9' * (csv.field_size_limit() + 1)},40,000000000000",
                     f": field larger than field limit ({csv.field_size_limit()})"),
                ]
                for place, k, notes in [("first", 0, ()), ("after-notes", 3, ("# a note", "", " \t")), ("last", 6 * 8, ())]
            ],
            *[
                (f"row-with-{n}-fields", row_at(1, row), f": data row 2 ({row}) has {n} fields, expected 5")
                for n, row in [(3, "2,1,10"), (6, "2,1,10,40,000000000000,7")]
            ],
            # spellings that int() reads as 10: only ASCII digits are a count
            *[
                (f"{field}-{name}", row_at(1, row), f": data row 2 ({row}) field {field} is not an integer: {text!r}")
                for name, row, field, text in [
                    ("x", "2,x,10,40,000000000000", "sequence_index", "x"),
                    ("fractional", "2,1,10,4.0,000000000000", "shots", "4.0"),
                    *[
                        (name, f"2,1,{text},40,000000000000", "survivals", text)
                        for name, text in [("underscore", "1_0"), ("full-width", "１０"), ("spaces", " 10 "), ("plus", "+10")]
                    ],
                ]
            ],
            *[
                (f"survivals-{name}", row_at(1, f"2,1,{n},40,000000000000"),
                 f": data row 2 (2,1,{n},40,000000000000): survival count {n} outside [0, 40]")
                for name, n in [("negative", -1), ("above-shots", 41), ("far-above-shots", 999)]
            ],
            # a row checked against the config and the rows before it
            ("rows-repeated", edit_rows(lambda rows: rows + rows[:3]), ": row s=1, sequence_index=0 appears more than once"),
            ("shots-mismatch", edit_rows(lambda rows: ["1,0,20,39,000000000000\n", *rows[1:]]),
             ": row s=1, sequence_index=0: 39 shots, config has shots_per_sequence 40"),
            ("length-outside-the-config", row_at(6 * 8, "99,0,20,40,000000000000"),
             ": row s=99, sequence_index=0: length 99 is not in the config lengths"),
            *[
                (f"sequence-index-{name}", row_at(6 * 8, f"2,{index},20,40,000000000000"),
                 f": row s=2, sequence_index={index}: sequence_index outside [0, 8)")
                for name, index in [("negative", -1), ("count", 8), ("huge", 10**12)]
            ],
        ]
    },
    "fit-out-is-the-dataset": Rejected(
        "fit ds.csv --out ds.csv", 1, line("invalid output: ds.csv would replace the input ds.csv")
    ),
    # I/O errors
    "run-config-missing": Rejected("run --config nope.yaml", 2, line(f"cannot read config: {ENOENT}: 'nope.yaml'")),
    "fit-dataset-missing": Rejected("fit none.csv", 2, line(f"cannot read dataset: {ENOENT}: 'none.csv'")),
    "run-out-in-a-missing-directory": Rejected(
        "run --config cfg.json --out missing/x.csv", 2, line(f"cannot write dataset: {ENOENT}: 'missing/x.csv'")
    ),
    # the curve table is written first, and is named by its path, not its temporary name
    "fit-out-in-a-missing-directory": Rejected(
        "fit ds.csv --resamples 0 --out missing/r.yaml", 2,
        line(f"cannot write report: {ENOENT}: 'missing/r.yaml.curve.csv'"),
    ),
    "fit-directory-at-the-curve-table": Rejected(
        "fit ds.csv --resamples 0 --out r.yaml", 2,
        line("cannot write report: r.yaml.curve.csv exists and is not a regular file"), {"r.yaml.curve.csv": None},
    ),
    # the help, too, is printed to stdout
    **{
        f"{name}-closed-stdout-{buffering}": Rejected(
            command, 2, "", closed_stdout={"PYTHONUNBUFFERED": unbuffered}, writes=writes
        )
        for buffering, unbuffered in [("unbuffered", "1"), ("buffered", "")]
        for name, command, writes in [
            ("verify", "verify", ()),
            ("oracle", "oracle --config cfg.json", ()),
            ("run", "run --config cfg.json --out out.csv", ("out.csv",)),
            ("fit", "fit ds.csv --resamples 0 --out r.yaml", ("r.yaml", "r.yaml.curve.csv")),
            ("help", "--help", ()),
            ("run-help", "run --help", ()),
        ]
    },
}
# Runs each [directory, argv] of the JSON list in argv[1] through cli.main,
# with fds 1 and 2 sent to files; prints each row's exit code, stdout and
# stderr. An exception that escapes main ends its row with code None.
REJECTING_CHILD = """
import json, os, sys, tempfile, traceback
from mbqcrb import cli
ended = []
for directory, argv in json.loads(sys.argv[1]):
    os.chdir(directory)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        kept = [os.dup(fd) for fd in (1, 2)]
        for fd, f in zip((1, 2), (out, err)):
            os.dup2(f.fileno(), fd)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
        sys.stdout.flush(), sys.stderr.flush()
        for fd, k in zip((1, 2), kept):
            os.dup2(k, fd)
            os.close(k)
        ended.append([code, *(f.seek(0) or f.read().decode("utf-8") for f in (out, err))])
print(json.dumps(ended))
"""


@pytest.fixture(scope="session")
def dataset_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset") / "ds.csv"
    write_dataset(run_protocol(config_from_dict(SAMPLE).rb), str(path))
    return path.read_text()


def entries(directory) -> dict:
    """Each entry of ``directory`` and its bytes, None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def make_row(directory, row, dataset) -> dict:
    directory.mkdir()
    files = {"cfg.json": json.dumps({**SAMPLE, "output": "sample.csv"}), "ds.csv": dataset, **row.files}
    for name, content in files.items():
        if content is None:
            (directory / name).mkdir()
        else:
            (directory / name).write_text(content(dataset) if callable(content) else content, encoding="utf-8")
    return entries(directory)


def check_rejected(name, row, code, out, err, before, directory):
    assert (code, out) == (row.code, ""), (name, err)
    assert re.fullmatch(row.err, err) and not re.search("Traceback|Exception ignored", err), (name, err)
    after = entries(directory)
    assert sorted(after) == sorted([*before, *row.writes]), name
    assert {path: after[path] for path in before} == before, name


class TestRejected:
    """Every row of REJECTED in cold processes, and each but the closed-pipe rows in this one."""

    @pytest.mark.parametrize("name", [name for name, row in REJECTED.items() if row.closed_stdout is None])
    def test_in_process(self, tmp_path, monkeypatch, capsys, dataset_text, name):
        row = REJECTED[name]
        before = make_row(tmp_path / "row", row, dataset_text)
        monkeypatch.chdir(tmp_path / "row")
        try:
            code = main(shlex.split(row.command))
        except SystemExit as exc:
            code = exc.code
        check_rejected(name, row, code, *capsys.readouterr(), before, tmp_path / "row")

    def test_cold(self, tmp_path, dataset_text):
        directories = {name: tmp_path / str(k) for k, name in enumerate(REJECTED)}
        before = {name: make_row(directories[name], row, dataset_text) for name, row in REJECTED.items()}
        in_child = [name for name, row in REJECTED.items() if row.closed_stdout is None]
        rows = json.dumps([[str(directories[name]), shlex.split(REJECTED[name].command)] for name in in_child])
        child = subprocess.Popen(
            [*COLD_PYTHON, "-c", REJECTING_CHILD, rows], env=COLD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        piped = {}
        for name, row in REJECTED.items():
            if row.closed_stdout is not None:
                read, write = os.pipe()
                os.close(read)
                piped[name] = subprocess.Popen(
                    [*COLD_PYTHON, "-m", "mbqcrb.cli", *shlex.split(row.command)], cwd=directories[name],
                    env={**COLD_ENV, **row.closed_stdout}, stdout=write, stderr=subprocess.PIPE, text=True,
                )
                os.close(write)
        printed, leaked = child.communicate()
        assert (child.returncode, leaked) == (0, "")  # nothing outside the rows, such as an unclosed file
        ended = dict(zip(in_child, json.loads(printed), strict=True))
        for name, process in piped.items():
            err = process.communicate()[1]
            ended[name] = [process.returncode, "", err]
        for name, row in REJECTED.items():
            check_rejected(name, row, *ended[name], before[name], directories[name])


class TestEndToEnd:
    def test_recovers_decay_parameter(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(
            cfg_path,
            lengths=[1, 2, 4, 8, 12, 16, 20],
            sequences_per_length=30,
            shots_per_sequence=150,
            noise={"kind": "depolarizing", "strength": 0.96, "placement": "after-each-gate-block"},
        )
        out = tmp_path / "ds.csv"
        assert main(["--quiet", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["--quiet", "fit", str(out), "--resamples", "0"]) == 0
        with open(str(out) + ".fit.yaml") as fh:
            report = yaml.safe_load(fh)
        assert report["avg_fidelity"] == pytest.approx(0.98, abs=0.01)


# SHA-256 of `mbqcrb run` output for small configs of every protocol and
# Clifford mode. The circuit digest dates from before the Clifford table
# existed; the wire digests were recorded when each item's survivals became
# Born coins at its outcome-averaged survival. Any change to the random
# stream or to the state arithmetic shows up here; a change that alters
# either on purpose must record new digests.
GOLDEN_BASE = {
    "lengths": [1, 2, 3, 5],
    "sequences_per_length": 4,
    "shots_per_sequence": 64,
    "seed": 2016,
    "noise": {"kind": "amplitude-damping", "strength": 0.03, "placement": "after-each-step"},
    "noise_inv": {"kind": "depolarizing", "strength": 0.98, "placement": "after-each-gate-block"},
    "instrument": {"bias": 0.1, "inject_randomness": False},
    "spam": {"prep_shrink": 0.98, "effect_bias": 0.01},
}
GOLDEN_RUNS = {
    "circuit": (
        {"protocol": "circuit"},
        "47bf670108916018f659e26b1342a4ece718c2d4923bbf5bc2c73dee653b0f06",
    ),
    "clifford-coset": (
        {"protocol": "clifford-mbqc", "clifford_mode": "coset"},
        "4a6277762532c6c4c89e60aa24b52dea434ef27080beeaea94d25ffc89fb4bfd",
    ),
    "clifford-full": (
        {"protocol": "clifford-mbqc", "clifford_mode": "full"},
        "233bd6fc39f68466b1260aa1f49ffd406e9bad9ca938dede2d35023dd44c8d1b",
    ),
    "derandomized": (
        {
            "protocol": "derandomized-mbqc",
            "design_phis": [0.25, 0.0],
            "instrument": {"bias": 0.05, "inject_randomness": True},
        },
        "95d9009b89177529012c268e79c105c4a6b8ad22934db875afdd1183d4120f50",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_dataset_bytes(tmp_path, name):
    cfg_path, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.csv"
    write_sample_config(cfg_path, **{**GOLDEN_BASE, **GOLDEN_RUNS[name][0]})
    assert main(["--quiet", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RUNS[name][1]
