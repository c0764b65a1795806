"""The program surface that the benchmark in ``perfbench/`` relies on.

``perfbench/run.py`` runs the CLI as cold processes and imports the engine
for its twin checks; ``perfbench/traced.py`` calls the modules in-process.
These tests fail when a name, argument or output they use goes away, so a
change to the program cannot break the benchmark unnoticed.
"""

import ast
import importlib
import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")
USERS = ("run.py", "traced.py")


@pytest.fixture(scope="module")
def bench():
    """perfbench's run and traced modules, imported the way run.py imports them."""
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run, importlib.import_module("traced"), importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


def _program_references(tree: ast.AST):
    """(module, attribute) for every program name a perfbench module reads."""
    aliases = {}  # local name -> mbqcrb module name
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mbqcrb":
            aliases.update({a.asname or a.name: f"mbqcrb.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mbqcrb."):
            refs.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update({a.asname: a.name for a in node.names if a.name.startswith("mbqcrb.")})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    return refs


def test_every_program_name_perfbench_reads_exists(bench):
    run, _, _ = bench
    refs = set()
    for name in USERS:
        with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
            refs |= _program_references(ast.parse(fh.read()))
    refs |= _program_references(ast.parse(run.SETUP_CODE))
    # the setup probe reads both gate sets through the cli module
    assert {("mbqcrb.cli", "clifford_group"), ("mbqcrb.cli", "derandomized_design")} <= refs
    assert {("mbqcrb.gatesets", "clifford_index"), ("mbqcrb.wire", "conjugation_bits")} <= refs
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(refs)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def test_setup_probe_runs(bench):
    run, _, _ = bench
    exec(run.SETUP_CODE, {})


def test_traced_pass_runs_clean_and_yields_declared_metrics(bench, tmp_path):
    run, traced, _ = bench
    tracer = run.benchlib.Tracer("contract")
    ops = run.Ops()
    first = traced._first_calls(tracer)
    metrics, values, _ = traced.traced_pass(tracer, "oracle-ladder", 2016, str(tmp_path), 1, ops)
    run.check_oracle_reference(ops, values, run.load_reference())
    run.check_oracle_twins(ops)
    assert ops.failures == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) | set(first) | {"trace.overhead_s"} == declared


def test_cli_commands_as_perfbench_runs_them(bench, tmp_path, capsys):
    run, _, workloads = bench
    cli = importlib.import_module("mbqcrb.cli")
    ops = run.Ops()
    configs = workloads.write_inputs("sampling", 2016, str(tmp_path))
    for experiment in workloads.EXPERIMENTS:
        dataset = str(tmp_path / f"{experiment}.csv")
        assert cli.main(["run", "--config", configs[experiment], "--out", dataset]) == 0
        assert cli.main(["fit", dataset, "--resamples", str(workloads.RESAMPLES)]) == 0
        run.check_sampling(ops, experiment, [dataset, dataset + ".fit.yaml"])
    configs = workloads.write_inputs("oracle-ladder", 2016, str(tmp_path))
    assert cli.main(["verify"]) == 0
    values = {}
    for variant, s in workloads.oracle_rungs():
        capsys.readouterr()
        assert cli.main(["oracle", "--config", configs[variant], "--length", str(s)]) == 0
        values[f"{variant}.s{s}"] = run.parse_enumerated(capsys.readouterr().out)
    run.check_oracle_reference(ops, values, run.load_reference())
    assert ops.failures == []
