import csv
import errno
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mbqcrb
import mbqcrb.cli
from mbqcrb import __version__
from mbqcrb.channels import I2, X, Y, Z
from mbqcrb.cli import (
    _PLAIN_STRINGS,
    _yaml_scalar,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    format_angle_pi,
    load_config,
    main,
    read_dataset,
    write_dataset,
    write_fit_report,
)
from mbqcrb.config import AFTER_EACH_STEP, CLIFFORD_MODES, _config_loader, parse_json
from mbqcrb.engine import (
    _BIAS_WARNING,
    PROTOCOLS,
    RBConfig,
    SpamModel,
    exact_sequence_fidelity,
    run_protocol,
    sequence_fidelity_estimate,
)
from mbqcrb.wire import InstrumentConfig, NoiseModel

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

# Each config-file section and the type whose fields are its keys.
SECTIONS = {
    None: RBConfig,
    "noise": NoiseModel,
    "noise_inv": NoiseModel,
    "instrument": InstrumentConfig,
    "spam": SpamModel,
}


def wrong_type_cases():
    """(section, field, value) for every field of every section and a value of the wrong type.

    A numeric string is a string: it must not be read as the number it spells.
    """
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            if f.name == "dependence":  # a callable, which no file can hold
                continue
            values = [None, "1", ["1"]] + ([] if f.type in ("bool", bool) else [True])
            for value in values:
                yield pytest.param(section, f.name, value, id=f"{section or 'config'}-{f.name}-{value!r}")


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

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            config_from_dict({"protocol": "circuit"})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sequences": 8},
            {"spam": {"prep_shrink": 1.0, "effect_bais": 0.0}},
            {"instrument": {"bias": 0.0, "inject": True}},
            {"noise_inv": {"kind": "none", "placment": "after-each-step"}},
            {"noise": {"kind": "composite", "parts": [{"kind": "dephasing", "strengh": 0.1}]}},
            {"spam": 0.98},
        ],
    )
    def test_unknown_keys_rejected_at_every_level(self, overrides):
        with pytest.raises(ValueError):
            config_from_dict({**SAMPLE, **overrides})

    def test_dependence_not_serializable(self):
        rb = RBConfig(
            protocol="clifford-mbqc",
            lengths=(1,),
            sequences_per_length=1,
            shots_per_sequence=1,
            noise=NoiseModel(kind="depolarizing", strength=0.9, dependence=lambda t, m: NoiseModel()),
        )
        with pytest.raises(ValueError):
            config_to_dict(ExperimentConfig(rb=rb))


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
        rb = RBConfig(
            protocol="clifford-mbqc",
            lengths=(1,),
            sequences_per_length=1,
            shots_per_sequence=1,
            noise=NoiseModel(kind="depolarizing", strength=0.9, dependence=lambda t, m: NoiseModel()),
        )
        ds = run_protocol(rb)
        path = tmp_path / "ds.csv"
        with pytest.raises(ValueError, match="dependence map cannot be serialized"):
            write_dataset(ds, str(path))
        assert not path.exists()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_dataset(str(path))


class TestVerifyCommand:
    def test_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "acos(1/sqrt3)" in out

    def test_corrupted_table_fails(self, monkeypatch, capsys):
        import mbqcrb.cli as cli

        table = dict(cli.CLIFFORD_ANGLE_TABLE)
        table["H"] = (0, 0, 1)
        monkeypatch.setattr(cli, "CLIFFORD_ANGLE_TABLE", table)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL clifford-angle-table" in out
        assert "H" in out
        assert out.count("PASS") == 4

    def test_pauli_design_fails(self, monkeypatch, capsys):
        import mbqcrb.cli as cli

        paulis = SimpleNamespace(elements=(I2, X, Y, Z))
        monkeypatch.setattr(cli, "derandomized_design", lambda: paulis)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL derandomized-2design" in out
        assert out.count("PASS") == 4

    def test_wrong_byproduct_formula_fails(self, monkeypatch, capsys):
        import mbqcrb.gatesets as gatesets

        right = gatesets.byproduct_bits
        monkeypatch.setattr(gatesets, "byproduct_bits", lambda n, m: right(n, m)[::-1])
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

    def test_deterministic_bytes(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_data(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--seed", "12345", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_invalid_config_is_validation_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, protocol="quantum-volume")
        assert main(["run", "--config", str(cfg_path)]) == 1

    def test_misspelled_noise_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(
            cfg_path,
            noise={"kind": "depolarizing", "strenght": 0.96, "placement": "after-each-gate-block"},
        )
        for argv in (["run", "--out", str(tmp_path / "x.csv")], ["oracle", "--length", "2"]):
            assert main([*argv, "--config", str(cfg_path)]) == 1
            assert "strenght" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"lengths": 5}, "lengths"),
            ({"lengths": [1, None]}, "lengths entry"),
            ({"sequences_per_length": None}, "sequences_per_length"),
            ({"shots_per_sequence": "many"}, "shots_per_sequence"),
            ({"noise": {"kind": "depolarizing", "strength": None}}, "noise strength"),
            ({"noise": {"kind": "composite", "parts": 3}}, "noise parts"),
            ({"design_phis": [None, 0.0]}, "design_phis entry"),
            ({"sequences_per_length": 2.5}, "sequences_per_length"),
            ({"noise": {"kind": "depolarizing", "strength": True}}, "noise strength"),
            ({"instrument": {"inject_randomness": "false"}}, "instrument inject_randomness"),
            ({"output": 5}, "output"),
        ],
        ids=[
            "lengths", "length-entry", "sequences", "shots", "strength", "parts", "phis",
            "fractional-count", "flag-as-number", "string-flag", "output",
        ],
    )
    def test_wrong_value_type_rejected(self, tmp_path, capsys, overrides, key):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, **overrides)
        out = tmp_path / "ds.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"design_phis": [0.0, 0.0, 0.0]}, "design_phis"),
            ({"design_phis": []}, "design_phis"),
            # finite in the file's units of pi, but not in radians
            (
                {"design_phis": [1.0e308, 0.0]},
                "design_phis entry 1 is 1e+308 (units of pi), too large to convert to radians\n",
            ),
            (
                {
                    "noise": {
                        "kind": "depolarizing",
                        "strength": 0.9,
                        "parts": [{"kind": "dephasing", "strength": 0.1}],
                    }
                },
                "parts",
            ),
            ({"noise": {"kind": "none", "strength": 0.3}}, "strength"),
            (
                {
                    "noise_inv": {
                        "kind": "composite",
                        "strength": 0.3,
                        "parts": [{"kind": "dephasing", "strength": 0.1}],
                    }
                },
                "strength",
            ),
            # checked where the NoiseModel is built, not first by run or oracle
            (
                {"noise": {"kind": "depolarizing", "strength": 1.5}},
                "noise depolarizing parameter must lie in [0, 1], got 1.5\n",
            ),
            (
                {"noise": {"kind": "dephasing", "strength": -0.2}},
                "noise flip probability must lie in [0, 1], got -0.2\n",
            ),
            (
                {"noise": {"kind": "amplitude-damping", "strength": 1.01}},
                "noise damping probability must lie in [0, 1], got 1.01\n",
            ),
            (
                {
                    "noise": {
                        "kind": "composite",
                        "parts": [{"kind": "dephasing", "strength": 0.1}, {"kind": "depolarizing", "strength": 2}],
                    }
                },
                "noise parts entry 2 depolarizing parameter must lie in [0, 1], got 2.0\n",
            ),
        ],
        ids=[
            "three-phis", "no-phis", "overflowing-phi", "parts-without-composite", "none-strength",
            "composite-strength", "depolarizing-range", "dephasing-range", "damping-range", "part-range",
        ],
    )
    def test_value_the_config_cannot_use_rejected(self, tmp_path, capsys, overrides, key):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, protocol="derandomized-mbqc", **overrides)
        out = tmp_path / "ds.csv"
        for argv in (["run", "--out", str(out)], ["oracle"]):
            assert main([*argv, "--config", str(cfg_path)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("invalid config: ") and key in captured.err
            assert captured.out == ""
        assert not out.exists()

    # 10**15 elements need more address space than a 64-bit process has, so
    # the allocation fails at once without touching memory
    @pytest.mark.parametrize(
        "overrides",
        [
            {"lengths": [1, 10**15]},
            {"protocol": "derandomized-mbqc", "shots_per_sequence": 10**15},
            {"protocol": "circuit", "shots_per_sequence": 10**15},
        ],
        ids=["clifford-length", "derandomized-shots", "circuit-shots"],
    )
    def test_experiment_too_large_to_allocate_rejected(self, tmp_path, capsys, overrides):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, **overrides)
        out = tmp_path / "ds.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid experiment: Unable to allocate")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("section, name, value", wrong_type_cases())
    def test_every_field_rejects_a_value_of_the_wrong_type(self, tmp_path, capsys, section, name, value):
        data = dict(SAMPLE)
        if section is None:
            data[name] = value
        else:
            data[section] = {**SAMPLE[section], name: value}
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        out = tmp_path / "ds.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and name in err
        assert not out.exists()

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
        import mbqcrb.cli as cli
        import mbqcrb.gatesets as gatesets

        table = dict(cli.CLIFFORD_ANGLE_TABLE)
        table["H"] = (0, 0, 1)
        monkeypatch.setattr(cli, "CLIFFORD_ANGLE_TABLE", table)
        if "byproduct-bits" in broken:
            right = gatesets.byproduct_bits
            monkeypatch.setattr(gatesets, "byproduct_bits", lambda n, m: right(n, m)[::-1])
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, verify_first=True)
        out = tmp_path / "ds.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # every failed check is reported, each on one line
        assert [line.partition(": ")[0] for line in captured.err.splitlines()] == [f"FAIL {n}" for n in broken]
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["below", "above"])
    @pytest.mark.parametrize("given_by", ["option", "config"])
    def test_seed_outside_range_rejected(self, tmp_path, capsys, seed, given_by):
        # a seed outside [0, 2**64) used to alias a seed inside it
        cfg_path = tmp_path / "cfg.yaml"
        out = tmp_path / "ds.csv"
        argv = ["run", "--config", str(cfg_path), "--out", str(out)]
        if given_by == "option":
            write_sample_config(cfg_path)
            argv += ["--seed", str(seed)]
        else:
            write_sample_config(cfg_path, seed=seed)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and f"seed must lie in [0, 2**64), got {seed}" in err
        assert not out.exists()

    def test_seeds_at_both_ends_of_the_range_run(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        for seed in (0, 2**64 - 1):
            out = tmp_path / f"{seed}.csv"
            assert main(["run", "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]) == 0
            assert read_dataset(str(out)).config.seed == seed

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "protocol: clifford-mbqc\nlengths: [1, 2]\nsequences_per_length: 2\n"
                "shots_per_sequence: 10\nseed: 1\nseed: 7\n",
                "duplicate key 'seed' (line 6)",
            ),
            (
                "protocol: clifford-mbqc\nlengths: [1, 2]\nsequences_per_length: 2\n"
                "shots_per_sequence: 10\nnoise:\n  kind: depolarizing\n"
                "  strength: 0.9\n  strength: 0.8\n",
                "duplicate key 'strength' (line 8)",
            ),
        ],
        ids=["top-level", "nested"],
    )
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_duplicate_key_rejected(self, tmp_path, capsys, text, message, command):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        out = tmp_path / "ds.csv"
        argv = [command, "--config", str(cfg_path)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"invalid config: {message}\n"
        assert captured.out == ""
        assert not out.exists()
        with pytest.raises(ValueError) as raised:
            load_config(str(cfg_path))
        assert str(raised.value) == message

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_yaml_syntax_error_rejected(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("protocol: [circuit\n")
        out = tmp_path / "ds.csv"
        argv = [command, "--config", str(cfg_path)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        message = (
            "while parsing a flow sequence\n"
            f'  in "{cfg_path}", line 1, column 11\n'
            "expected ',' or ']', but got '<stream end>'\n"
            f'  in "{cfg_path}", line 2, column 1'
        )
        assert captured.err == f"invalid config: {message}\n"
        assert captured.out == ""
        assert not out.exists()
        with pytest.raises(ValueError) as raised:
            load_config(str(cfg_path))
        assert str(raised.value) == message

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

    @pytest.mark.parametrize(
        "text, message",
        [
            (json.dumps(SAMPLE)[:-1] + ', "seed": 8}', "duplicate key 'seed' (line 1)"),
            (
                json.dumps({**SAMPLE, "noise": {"kind": "dephasing", "strength": 0.5}}).replace("0.5", "NaN"),
                "noise strength must be a finite float, got 'NaN'",
            ),
            (
                json.dumps({**SAMPLE, "noise": {"kind": "dephasing", "strength": 0.5}}).replace("0.5", "-Infinity"),
                "noise strength must be a finite float, got '-Infinity'",
            ),
        ],
        ids=["repeated-key", "nan", "infinity"],
    )
    def test_text_the_json_rule_rejects_is_read_as_yaml(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        with pytest.raises(ValueError):
            parse_json(text)
        assert main(["oracle", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"invalid config: {message}\n"

    @pytest.mark.parametrize(
        "text",
        [f"protocol: circuit\nlengths: {DEEP_LENGTHS}\n", DEEP_NOISE],
        ids=["lengths-600-lists", "noise-200-composites"],
    )
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_config_nested_too_deeply_rejected(self, tmp_path, capsys, text, command):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        out = tmp_path / "ds.csv"
        argv = [command, "--config", str(cfg_path)]
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "invalid config: the file is nested too deeply to read\n"
        assert captured.out == ""
        assert not out.exists()
        with pytest.raises(ValueError, match="^the file is nested too deeply to read$"):
            load_config(str(cfg_path))

    def test_merged_key_may_be_overridden(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "protocol: clifford-mbqc\nlengths: [1, 2]\nsequences_per_length: 2\n"
            "shots_per_sequence: 10\nnoise: &dep {kind: depolarizing, strength: 0.9}\n"
            "noise_inv:\n  <<: *dep\n  strength: 0.8\n"
        )
        rb = load_config(str(cfg_path)).rb
        assert (rb.noise.strength, rb.noise_inv.strength) == (0.9, 0.8)

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_output_in_a_missing_directory_is_named_by_its_path(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        dataset = tmp_path / "ds.csv"
        assert main(["--quiet", "run", "--config", str(cfg_path), "--out", str(dataset)]) == 0
        if command == "run":
            out = tmp_path / "missing" / "x.csv"
            argv, what, failed = ["run", "--config", str(cfg_path)], "dataset", out
        else:  # the curve table is written first
            out = tmp_path / "missing" / "r.yaml"
            argv, what, failed = ["fit", str(dataset), "--resamples", "0"], "report", f"{out}.curve.csv"
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write {what}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{failed}'\n"
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "ds.csv"]

    @pytest.mark.parametrize(
        "text, output",
        [
            (json.dumps({**SAMPLE, "output": "\ud800.csv"}), "\ud800.csv"),
            # PyYAML decodes the escaped pair into two lone surrogates
            (yaml.safe_dump(SAMPLE) + 'output: "\\ud83d\\ude00.csv"\n', "\ud83d\ude00.csv"),
            (json.dumps({**SAMPLE, "output": "a\0.csv"}), "a\0.csv"),
        ],
        ids=["json-lone-surrogate", "yaml-surrogate-pair", "nul"],
    )
    def test_output_that_open_cannot_take_rejected(self, tmp_path, capsys, text, output):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(text)
        message = (
            f"invalid config: output must be a file name the file system can encode, "
            f"with no NUL; got {output!r}\n"
        )
        for argv in (["run", "--out", str(tmp_path / "x.csv")], ["oracle"]):
            assert main([*argv, "--config", str(cfg_path)]) == 1
            assert capsys.readouterr() == ("", message)
        assert not (tmp_path / "x.csv").exists()

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

    def test_pipeline_deterministic(self, tmp_path):
        out = self._make_dataset(tmp_path)
        r1, r2 = tmp_path / "r1.yaml", tmp_path / "r2.yaml"
        assert main(["fit", str(out), "--out", str(r1), "--resamples", "100"]) == 0
        assert main(["fit", str(out), "--out", str(r2), "--resamples", "100"]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_noiseless_dataset_flags_degenerate(self, tmp_path):
        out = self._make_dataset(tmp_path, noise={"kind": "none"})
        assert main(["fit", str(out), "--resamples", "0"]) == 0
        with open(str(out) + ".fit.yaml") as fh:
            report = yaml.safe_load(fh)
        assert report["p"] == 1.0
        assert report["degenerate"] or report["clamped"]

    def test_insufficient_lengths(self, tmp_path):
        out = self._make_dataset(tmp_path, lengths=[1, 2])
        assert main(["fit", str(out), "--resamples", "0"]) == 1

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "none.csv")]) == 2

    def test_too_few_resamples_rejected(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        assert main(["fit", str(out), "--resamples", "50"]) == 1
        err = capsys.readouterr().err
        assert "--resamples" in err and len(err.strip().splitlines()) == 1

    def test_negative_resamples_rejected(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        assert main(["fit", str(out), "--resamples", "-3"]) == 1
        assert "--resamples" in capsys.readouterr().err
        assert not (tmp_path / "ds.csv.fit.yaml").exists()

    def test_resamples_too_many_to_allocate_rejected(self, tmp_path, capsys):
        # 10**15 resamples need more address space than a 64-bit process
        # has, so the allocation fails at once without touching memory
        out = self._make_dataset(tmp_path)
        capsys.readouterr()
        assert main(["fit", str(out), "--resamples", str(10**15)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot fit: Unable to allocate")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not (tmp_path / "ds.csv.fit.yaml").exists()
        assert not (tmp_path / "ds.csv.fit.yaml.curve.csv").exists()

    @pytest.mark.parametrize(
        "key, line",
        [("config", DEEP_JSON), ("config", DEEP_NOISE), ("warnings", DEEP_JSON)],
        ids=["2000-lists", "noise-200-composites", "warnings-2000-lists"],
    )
    def test_config_line_nested_too_deeply_rejected(self, tmp_path, capsys, key, line):
        out = self._make_dataset(tmp_path)
        text = out.read_text().splitlines(keepends=True)
        k = 2 if key == "config" else 3
        assert text[k].startswith(f"# {key}: ")
        out.write_text("".join(text[:k] + [f"# {key}: {line}\n"] + text[k + 1 :]))
        message = f"{out}: the {key} line is nested too deeply to read"
        with pytest.raises(ValueError) as raised:
            read_dataset(str(out))
        assert str(raised.value) == message
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        assert capsys.readouterr().err == f"invalid dataset: {message}\n"
        assert not (tmp_path / "ds.csv.fit.yaml").exists()
        assert not (tmp_path / "ds.csv.fit.yaml.curve.csv").exists()

    def test_field_longer_than_the_csv_limit_rejected(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        limit = csv.field_size_limit()
        row = f"2,1,{'9' * (limit + 1)},40,000000000000"
        self._edit_rows(out, lambda rows: rows[:1] + [row + "\n"] + rows[1:])
        message = f"{out}: data row 2: field larger than field limit ({limit})"
        with pytest.raises(ValueError) as raised:
            read_dataset(str(out))
        assert str(raised.value) == message
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        assert capsys.readouterr().err == f"invalid dataset: {message}\n"
        assert not (tmp_path / "ds.csv.fit.yaml").exists()
        assert not (tmp_path / "ds.csv.fit.yaml.curve.csv").exists()

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

    def test_directory_at_the_curve_table_leaves_no_report(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        (tmp_path / "r.yaml.curve.csv").mkdir()
        capsys.readouterr()
        assert main(["fit", str(out), "--resamples", "0", "--out", str(tmp_path / "r.yaml")]) == 2
        table = tmp_path / "r.yaml.curve.csv"
        assert capsys.readouterr().err == f"cannot write report: {table} exists and is not a regular file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "ds.csv", "r.yaml.curve.csv"]

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

    def test_shuffled_rows_fit_the_same(self, tmp_path):
        out = self._make_dataset(tmp_path)
        first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
        assert main(["--quiet", "fit", str(out), "--out", str(first)]) == 0
        order = np.random.default_rng(5).permutation(6 * 8)
        assert np.any(order != np.arange(6 * 8))
        self._edit_rows(out, lambda rows: [rows[k] for k in order])
        assert main(["--quiet", "fit", str(out), "--out", str(second)]) == 0
        for suffix in ("", ".curve.csv"):
            assert (tmp_path / f"first.yaml{suffix}").read_bytes() == (tmp_path / f"second.yaml{suffix}").read_bytes()

    def _edit_rows(self, path, edit):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        body = lines.index("s,sequence_index,survivals,shots,gate_digest\n") + 1
        path.write_text("".join(lines[:body] + edit(lines[body:])), encoding="utf-8")

    def test_duplicate_rows_rejected(self, tmp_path):
        out = self._make_dataset(tmp_path)
        self._edit_rows(out, lambda rows: rows + rows[:3])
        with pytest.raises(ValueError, match="more than once"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1

    @pytest.mark.parametrize("row", ["2,1,10", "2,1,10,40,000000000000,7"])
    def test_row_with_wrong_field_count_rejected(self, tmp_path, capsys, row):
        out = self._make_dataset(tmp_path)
        self._edit_rows(out, lambda rows: rows[:1] + [row + "\n"] + rows[1:])
        with pytest.raises(ValueError, match=rf"data row 2 \({row}\) has \d fields, expected 5"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        assert capsys.readouterr().err.startswith("invalid dataset: ")

    @pytest.mark.parametrize(
        "row, field",
        [
            ("2,x,10,40,000000000000", "sequence_index"),
            ("2,1,10,4.0,000000000000", "shots"),
            # spellings that int() reads as 10: only ASCII digits are a count
            ("2,1,1_0,40,000000000000", "survivals"),
            ("2,1,\uff11\uff10,40,000000000000", "survivals"),
            ("2,1, 10 ,40,000000000000", "survivals"),
            ("2,1,+10,40,000000000000", "survivals"),
        ],
    )
    def test_row_with_non_integer_field_rejected(self, tmp_path, capsys, row, field):
        out = self._make_dataset(tmp_path)
        self._edit_rows(out, lambda rows: rows[:1] + [row + "\n"] + rows[1:])
        with pytest.raises(ValueError, match=rf"data row 2 \({re.escape(row)}\) field {field} is not an integer"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        assert capsys.readouterr().err.startswith("invalid dataset: ")
        assert not (tmp_path / "ds.csv.fit.yaml").exists()

    @pytest.mark.parametrize("survivals", [-1, 41, 999])
    def test_survivals_outside_shots_name_the_row(self, tmp_path, capsys, survivals):
        out = self._make_dataset(tmp_path)
        row = f"2,1,{survivals},40,000000000000"
        self._edit_rows(out, lambda rows: rows[:1] + [row + "\n"] + rows[1:])
        with pytest.raises(ValueError, match=rf"data row 2 \({row}\): survival count {survivals} outside \[0, 40\]"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid dataset: {out}: data row 2") and len(err.strip().splitlines()) == 1

    def test_shots_mismatch_rejected(self, tmp_path):
        out = self._make_dataset(tmp_path)
        def fewer_shots(rows):
            s, index, survivals, _, digest = rows[0].split(",")
            return [f"{s},{index},{min(int(survivals), 39)},39,{digest}"] + rows[1:]

        self._edit_rows(out, fewer_shots)
        with pytest.raises(ValueError, match="shots_per_sequence"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1

    def test_length_outside_config_rejected(self, tmp_path):
        out = self._make_dataset(tmp_path)
        self._edit_rows(out, lambda rows: rows + ["99,0,20,40,000000000000\n"])
        with pytest.raises(ValueError, match="not in the config"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1

    @pytest.mark.parametrize(
        "index", [-1, SAMPLE["sequences_per_length"], 10**12], ids=["negative", "count", "huge"]
    )
    def test_sequence_index_outside_config_rejected(self, tmp_path, capsys, index):
        out = self._make_dataset(tmp_path)
        self._edit_rows(out, lambda rows: rows + [f"2,{index},20,40,000000000000\n"])
        where = rf"row s=2, sequence_index={index}: sequence_index outside \[0, 8\)"
        with pytest.raises(ValueError, match=where):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid dataset: ") and len(err.strip().splitlines()) == 1
        assert f"sequence_index={index}:" in err
        assert not (tmp_path / "ds.csv.fit.yaml").exists()

    @pytest.mark.parametrize("line", ["null", "5", '"abc"'], ids=["null", "number", "string"])
    def test_warnings_line_must_hold_a_list_of_strings(self, tmp_path, capsys, line):
        out = self._make_dataset(tmp_path)
        text = out.read_text().splitlines(keepends=True)
        k = next(i for i, row in enumerate(text) if row.startswith("# warnings: "))
        out.write_text("".join(text[:k] + [f"# warnings: {line}\n"] + text[k + 1 :]))
        with pytest.raises(ValueError, match="warnings line must hold a JSON list of strings"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid dataset: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "ds.csv.fit.yaml").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("# config: {", '# config: {"seed": 99, ', "the config line: duplicate key 'seed'"),
            ('"noise": {', '"noise": {"strength": 0.5, ', "the config line: duplicate key 'strength'"),
            ("# warnings:", "# config: {}\n# warnings:", "the config line appears more than once"),
            ("# warnings: []\n", "# warnings: []\n# warnings: []\n", "the warnings line appears more than once"),
            (
                "# warnings: []\n",
                "# warnings: [,]\n",
                "the warnings line: Expecting value: line 1 column 2 (char 1)",
            ),
            # valid JSON, but a setting the config rejects
            ('"lengths": [1, ', '"lengths": [1, 1, ', "the config line: lengths must be distinct"),
            # the rule of config files, which allows no NaN or Infinity
            ('"strength": 0.9', '"strength": NaN', "the config line: NaN is not a JSON number"),
        ],
        ids=[
            "top-level-key",
            "nested-key",
            "config-line",
            "warnings-line",
            "warnings-json",
            "config-setting",
            "config-nan",
        ],
    )
    def test_repeated_key_or_preamble_line_rejected(self, tmp_path, capsys, old, new, message):
        # json.loads and the preamble dict would otherwise keep the last value
        out = self._make_dataset(tmp_path)
        text = out.read_text()
        assert old in text
        out.write_text(text.replace(old, new, 1))
        with pytest.raises(ValueError) as raised:
            read_dataset(str(out))
        assert str(raised.value) == f"{out}: {message}"
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        assert capsys.readouterr().err == f"invalid dataset: {out}: {message}\n"
        assert not (tmp_path / "ds.csv.fit.yaml").exists()

    def _replace_header(self, path, lines):
        text = path.read_text().splitlines(keepends=True)
        assert text[0] == "# mbqcrb-dataset-v2\n"
        path.write_text("".join(lines + text[1:]))

    @pytest.mark.parametrize("header", ["# mbqcrb-dataset-v1", "# mbqcrb-dataset-v2"])
    def test_both_dataset_headers_read(self, tmp_path, header):
        out = self._make_dataset(tmp_path)
        self._replace_header(out, [header + "\n"])
        assert len(read_dataset(str(out)).records) == 6 * 8

    @pytest.mark.parametrize(
        "lines",
        [["# something-else-entirely\n"], ["# mbqcrb-dataset-v3\n"], []],
        ids=["foreign", "future", "missing"],
    )
    def test_unknown_or_missing_header_rejected(self, tmp_path, capsys, lines):
        out = self._make_dataset(tmp_path)
        self._replace_header(out, lines)
        with pytest.raises(ValueError, match="does not start with a dataset header"):
            read_dataset(str(out))
        assert main(["fit", str(out), "--resamples", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid dataset: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "ds.csv.fit.yaml").exists()

    def test_missing_row_and_single_sequence_length_fitted(self, tmp_path, capsys):
        out = self._make_dataset(tmp_path)
        def thin(rows):
            fields = [row.split(",") for row in rows]
            return [
                row
                for row, (s, index, *_) in zip(rows, fields)
                if not (s == "2" and index == "3") and (s != "6" or index == "0")
            ]

        self._edit_rows(out, thin)
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

        monkeypatch.setattr(mbqcrb.cli, "write_fit_report", record)
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

    def test_length_below_one_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        for length in ("0", "-1"):
            assert main(["oracle", "--config", str(cfg_path), "--length", length]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("cannot evaluate the oracle: ")

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
    """argparse's usage errors exit 1, like every other invalid input: exit
    code 2 is kept for I/O failures."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle", "--config", "cfg.yaml", "--length", "abc"], "argument --length: invalid int value: 'abc'"),
            (["run"], "the following arguments are required: --config"),
            (["fit", "ds.csv", "--resamples", "x"], "argument --resamples: invalid int value: 'x'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["oracle-length", "run-without-config", "fit-resamples", "unknown-command"],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()[0], captured.err.splitlines()[-1]
        assert usage.startswith("usage: mbqcrb")
        assert error.startswith("mbqcrb") and f": error: {message}" in error

    @pytest.mark.parametrize(
        "command, option, text",
        [
            ("oracle", "--length", "1_0"),
            ("oracle", "--length", "\uff13"),
            ("oracle", "--length", " 3 "),
            ("run", "--seed", "8_11"),
            ("run", "--seed", "\uff18\uff11\uff11"),
            ("fit", "--resamples", "1_00"),
            ("fit", "--resamples", "+200"),
        ],
    )
    def test_integer_options_follow_the_count_rule(self, tmp_path, capsys, command, option, text):
        # int() reads each of these as a number; like a dataset's count fields,
        # an integer option is ASCII digits with an optional leading minus
        cfg_path, dataset, out = tmp_path / "cfg.yaml", tmp_path / "ds.csv", tmp_path / "out"
        write_sample_config(cfg_path)
        assert main(["--quiet", "run", "--config", str(cfg_path), "--out", str(dataset)]) == 0
        inputs = {
            "oracle": ["--config", str(cfg_path)],
            "run": ["--config", str(cfg_path), "--out", str(out)],
            "fit": [str(dataset), "--out", str(out)],
        }
        with pytest.raises(SystemExit) as raised:
            main([command, *inputs[command], option, text])
        assert raised.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith(f"usage: mbqcrb {command}")
        assert captured.err.splitlines()[-1].endswith(f": error: argument {option}: invalid int value: {text!r}")
        assert sorted(tmp_path.iterdir()) == [cfg_path, dataset]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["--help"])
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mbqcrb")


def run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this test's package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mbqcrb.__file__)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


# numpy.linalg's decompositions and solvers, each of which calls LAPACK: its
# first call maps about 1 MB of OpenBLAS pages into the process.
LAPACK_ROUTINES = (
    "cholesky", "eig", "eigh", "eigvals", "eigvalsh", "svd", "qr", "solve",
    "lstsq", "inv", "pinv", "det", "slogdet", "matrix_rank",
)
# Child code, run before mbqcrb is imported, that makes each of them raise,
# and the LAPACK gufuncs behind them too, which numpy's own callers reach.
NO_LAPACK = (
    "import numpy, numpy.linalg\n"
    "from numpy.linalg import _umath_linalg\n"
    "def refused(name):\n"
    "    def call(*args, **kwargs):\n"
    "        raise AssertionError(f'{name} calls LAPACK')\n"
    "    return call\n"
    f"for name in {LAPACK_ROUTINES!r}:\n"
    "    setattr(numpy.linalg, name, refused(name))\n"
    "for name in dir(_umath_linalg):\n"
    "    if isinstance(getattr(_umath_linalg, name), numpy.ufunc):\n"
    "        setattr(_umath_linalg, name, refused(name))\n"
)


class TestColdLoading:
    """A command loads only the modules it uses."""

    def _same_without_lapack(self, tmp_path, monkeypatch, capsys, commands):
        """Run ``commands`` here and in a child where LAPACK raises, each in a
        directory of its own: both print and write the same bytes."""
        plain, patched = tmp_path / "plain", tmp_path / "patched"
        plain.mkdir()
        patched.mkdir()
        code = (
            NO_LAPACK + "import os\n"
            f"os.chdir({str(patched)!r})\n"
            "from mbqcrb.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
        )
        printed = run_child(code)
        monkeypatch.chdir(plain)
        capsys.readouterr()
        for argv in commands:
            assert main(argv) == 0
        assert printed == capsys.readouterr().out
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in patched.iterdir())
        for name in names:
            assert (plain / name).read_bytes() == (patched / name).read_bytes(), name

    def test_verify_run_and_fit_call_no_lapack(self, tmp_path, monkeypatch, capsys):
        commands = [["verify"]]
        for cfg in sorted(CONFIGS.glob("*.yaml")):
            commands.append(["run", "--config", str(cfg), "--out", f"{cfg.stem}.csv"])
            commands.append(["fit", f"{cfg.stem}.csv", "--out", f"{cfg.stem}.fit.yaml"])
        self._same_without_lapack(tmp_path, monkeypatch, capsys, commands)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_oracle_calls_no_lapack(self, tmp_path, monkeypatch, capsys, protocol):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path, protocol=protocol)
        self._same_without_lapack(tmp_path, monkeypatch, capsys, [["oracle", "--config", str(cfg_path)]])

    def test_verify_and_oracle_load_no_csv(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        cfg, out = str(cfg_path), str(tmp_path / "ds.csv")
        code = (
            "import json, sys\n"
            "import numpy\n"
            "def loaded():\n"
            "    return [m for m in ('csv', '_csv') if m in sys.modules]\n"
            "eager = loaded()\n"
            "from mbqcrb.cli import main\n"
            "assert main(['--quiet', 'verify']) == 0\n"
            f"assert main(['oracle', '--config', {cfg!r}]) == 0\n"
            "after_oracle = loaded()\n"
            f"assert main(['--quiet', 'run', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
            "print(json.dumps([eager, after_oracle, loaded()]))\n"
        )
        eager, oracle, run = json.loads(run_child(code).splitlines()[-1])
        if eager:
            pytest.skip("this numpy imports csv with numpy itself")
        assert oracle == []
        assert run == ["csv", "_csv"]  # the dataset is CSV: the check sees a load

    def test_import_loads_no_module(self):
        code = "import sys, mbqcrb\nprint(sorted(m for m in sys.modules if m.startswith('mbqcrb.')))\n"
        assert run_child(code) == "[]\n"

    def test_run_oracle_and_verify_do_not_load_fitting(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        cfg, out = str(cfg_path), str(tmp_path / "ds.csv")
        code = (
            "import sys\n"
            "from mbqcrb.cli import main\n"
            f"assert main(['--quiet', 'run', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
            f"assert main(['oracle', '--config', {cfg!r}]) == 0\n"
            "assert main(['--quiet', 'verify']) == 0\n"
            "assert 'mbqcrb.fitting' not in sys.modules\n"
        )
        run_child(code)

    def test_no_command_loads_the_literal_wire(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        cfg, out = str(cfg_path), str(tmp_path / "ds.csv")
        code = (
            "import sys\n"
            "from mbqcrb.cli import main\n"
            "assert main(['--quiet', 'verify']) == 0\n"
            f"assert main(['--quiet', 'run', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
            f"assert main(['oracle', '--config', {cfg!r}]) == 0\n"
            f"assert main(['--quiet', 'fit', {out!r}, '--resamples', '100']) == 0\n"
            "assert 'mbqcrb.fitting' in sys.modules\n"
            "assert 'mbqcrb.wire' not in sys.modules\n"
        )
        run_child(code)

    def test_verify_and_oracle_load_neither_openssl_nor_numpy_random(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        cfg, out = str(cfg_path), str(tmp_path / "ds.csv")
        code = (
            "import json, sys\n"
            "import numpy\n"
            "def loaded():\n"
            "    return [m for m in ('yaml', 'hashlib', '_hashlib', 'numpy.random') if m in sys.modules]\n"
            "eager = loaded()\n"
            "from mbqcrb.cli import main\n"
            "assert main(['--quiet', 'verify']) == 0\n"
            "after_verify = loaded()\n"
            f"assert main(['oracle', '--config', {cfg!r}]) == 0\n"
            "after_oracle = loaded()\n"
            f"assert main(['--quiet', 'run', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
            "print(json.dumps([eager, after_verify, after_oracle, loaded()]))\n"
        )
        eager, verify, oracle, run = json.loads(run_child(code).splitlines()[-1])
        # a module that a bare ``import numpy`` loads (numpy 1.x imports
        # numpy.random, and with it hashlib) cannot be kept out
        for module in ("yaml", "hashlib", "_hashlib", "numpy.random"):
            if module not in eager:
                assert module not in verify
        for module in ("hashlib", "_hashlib", "numpy.random"):
            if module not in eager:
                assert module not in oracle
        assert "yaml" in oracle
        assert "hashlib" in run  # the dataset digests need it: the check sees a load

    def test_run_and_oracle_on_a_json_config_load_no_yaml(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"  # the text, not the name, chooses the reader
        cfg_path.write_text(json.dumps(SAMPLE, indent=1))
        cfg, out = str(cfg_path), str(tmp_path / "ds.csv")
        code = (
            "import sys\n"
            "import numpy\n"
            "eager = 'yaml' in sys.modules\n"
            "from mbqcrb.cli import main\n"
            f"assert main(['oracle', '--config', {cfg!r}]) == 0\n"
            f"assert main(['--quiet', 'run', '--config', {cfg!r}, '--out', {out!r}]) == 0\n"
            "print(eager, 'yaml' in sys.modules)\n"
        )
        eager, loaded = run_child(code).split()[-2:]
        if eager == "True":
            pytest.skip("this numpy imports yaml with numpy itself")
        assert loaded == "False"

    @pytest.mark.parametrize("resamples", ["0", "200"])
    def test_fit_loads_no_yaml(self, tmp_path, resamples):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        out = tmp_path / "ds.csv"
        assert main(["--quiet", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
        code = (
            "import sys\n"
            "import numpy\n"
            "eager = 'yaml' in sys.modules\n"
            "from mbqcrb.cli import main\n"
            f"assert main(['--quiet', 'fit', {str(out)!r}, '--resamples', {resamples!r}]) == 0\n"
            "assert 'mbqcrb.fitting' in sys.modules\n"
            "print(eager, 'yaml' in sys.modules)\n"
        )
        eager, loaded = run_child(code).split()[-2:]
        if eager == "True":
            pytest.skip("this numpy imports yaml with numpy itself")
        assert loaded == "False"

    def test_fit_does_not_load_numpy_ma(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        write_sample_config(cfg_path)
        out = tmp_path / "ds.csv"
        assert main(["--quiet", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
        code = (
            "import sys\n"
            "import numpy\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "from mbqcrb.cli import main\n"
            f"assert main(['--quiet', 'fit', {str(out)!r}, '--resamples', '100']) == 0\n"
            "assert 'mbqcrb.fitting' in sys.modules\n"
            "print(eager, 'numpy.ma' in sys.modules)\n"
        )
        eager, loaded = run_child(code).split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert loaded == "False"


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


def golden_run_digest(tmp_path, name) -> str:
    cfg_path = tmp_path / f"{name}.yaml"
    write_sample_config(cfg_path, **{**GOLDEN_BASE, **GOLDEN_RUNS[name][0]})
    out = tmp_path / f"{name}.csv"
    assert main(["--quiet", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_dataset_bytes(tmp_path, name):
    assert golden_run_digest(tmp_path, name) == GOLDEN_RUNS[name][1]
