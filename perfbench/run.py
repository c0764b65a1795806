"""Benchmark for mbqcrb, run from the repository root.

    python3 perfbench/run.py --workload sampling --seed 2016 --seconds 55 --trace 0

With ``--trace 0`` the workload's CLI commands run as cold processes, one at
a time, in repeated passes until ``--seconds`` is spent; the end-to-end
metrics are medians over those passes. With ``--trace 1`` one cold pass of
the workload gives the untraced stage time, then the traced in-process run
(``traced.py``) gives the per-layer metrics of every workload. Either way
the last line of standard output is one JSON object: correct, attempted,
failed and metrics. Details (every sample, the environment, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# One thread per process: the machine this was tuned on has two cores, and
# the benchmark runs at most one child at a time next to itself.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import importlib.metadata
import json
import math
import platform
import shutil
import subprocess
import sys
import time

import benchlib
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CODE = (
    "import mbqcrb.cli as cli; cli.clifford_group(); cli.derandomized_design()"
)
SETUP_PER_PASS = 3
MIN_PASSES = 2
HARD_LIMIT_S = 140.0
STAT_SIGMAS = 5.0
CI_WIDTHS = 2.0
TWIN_TOL = 1e-10


class Ops:
    """Operations attempted and failed: every child process and every check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class ColdRunner:
    """Runs the program as cold processes against the checkout's sources."""

    def __init__(self, root: str, workdir: str, ops: Ops):
        self.workdir = workdir
        self.ops = ops
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.max_rss_kb = 0
        self.calls = 0

    def call(self, args, what: str) -> benchlib.ChildResult:
        self.calls += 1
        log = os.path.join(self.workdir, f"call{self.calls:04d}")
        res = benchlib.run_child([sys.executable, *args], self.env, self.workdir, log)
        self.max_rss_kb = max(self.max_rss_kb, res.max_rss_kb)
        self.ops.check(
            res.exit_code == 0, f"{what} exited {res.exit_code}: {res.stderr[-300:]}"
        )
        return res

    def setup(self) -> float:
        return self.call(["-c", SETUP_CODE], "setup").seconds

    def mbqcrb(self, *args) -> benchlib.ChildResult:
        return self.call(["-m", "mbqcrb.cli", *args], f"mbqcrb {' '.join(args)}")


# ---------------------------------------------------------------------------
# one pass of each workload: its CLI commands, as a user types them
# ---------------------------------------------------------------------------


def sampling_pass(cold: ColdRunner, configs: dict[str, str], passdir: str):
    """``run`` then ``fit`` for each experiment; returns times and output files."""
    times, outputs = {}, {}
    for experiment in wl.EXPERIMENTS:
        dataset = os.path.join(passdir, f"{experiment}.csv")
        run = cold.mbqcrb("run", "--config", configs[experiment], "--out", dataset)
        fit = cold.mbqcrb("fit", dataset, "--resamples", str(wl.RESAMPLES))
        times[f"run_s.{experiment}"] = run.seconds
        times[f"fit_s.{experiment}"] = fit.seconds
        outputs[experiment] = [dataset, dataset + ".fit.yaml", dataset + ".fit.yaml.curve.csv"]
    return times, outputs


def parse_enumerated(stdout: str) -> float | None:
    """The ``enumerated: <value>`` line that ``mbqcrb oracle`` prints."""
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        if key == "enumerated":
            try:
                return float(value)
            except ValueError:
                return None
    return None


def oracle_pass(cold: ColdRunner, configs: dict[str, str]):
    verify = cold.mbqcrb("verify")
    oracle_s = 0.0
    values = {}
    for variant, s in wl.oracle_rungs():
        res = cold.mbqcrb("oracle", "--config", configs[variant], "--length", str(s))
        oracle_s += res.seconds
        values[f"{variant}.s{s}"] = parse_enumerated(res.stdout)
    return {"verify_s": verify.seconds, "oracle_s": oracle_s}, values


def workload_pass(workload: str, cold: ColdRunner, inputs: dict[str, str], passdir: str):
    if workload == "oracle-ladder":
        return oracle_pass(cold, inputs)
    return sampling_pass(cold, inputs, passdir)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def read_survivals(path: str) -> dict[int, list[tuple[int, int]]]:
    """(survivals, shots) per length, read straight from the dataset CSV."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    by_s: dict[int, list[tuple[int, int]]] = {}
    for r in rows:
        by_s.setdefault(int(r["s"]), []).append((int(r["survivals"]), int(r["shots"])))
    return by_s


def check_sampling(ops: Ops, experiment: str, outputs: list[str]):
    """Each length's mean survival sits within 5 standard errors of F(s), and
    the fitted p within 2 CI widths of the true p.

    The noise is gate independent and outcomes are uniform, so every shot
    survives independently with probability F(s): the standard error of a
    length's mean over n sequences of m shots is sqrt(F(1 - F) / (n m)).
    """
    import yaml

    dataset, report = outputs[0], outputs[1]
    try:
        by_s = read_survivals(dataset)
    except (OSError, KeyError, ValueError) as exc:
        ops.check(False, f"{experiment}: unreadable dataset: {exc}")
        return
    config = wl.sampling_config(experiment, 0)
    ops.check(sorted(by_s) == config["lengths"], f"{experiment}: lengths {sorted(by_s)}")
    for s, cells in sorted(by_s.items()):
        f = wl.analytic_fidelity(experiment, s)
        mean = sum(k / m for k, m in cells) / len(cells)
        stderr = math.sqrt(f * (1 - f) / sum(m for _, m in cells))
        ops.check(
            abs(mean - f) <= STAT_SIGMAS * stderr,
            f"{experiment}: s={s} mean {mean:.6f} vs F {f:.6f} (stderr {stderr:.2e})",
        )
    try:
        with open(report, encoding="utf-8") as fh:
            fit = yaml.safe_load(fh)
        p, (lo, hi) = float(fit["p"]), fit["ci_p"]
    except (OSError, yaml.YAMLError, KeyError, TypeError, ValueError) as exc:
        ops.check(False, f"{experiment}: unreadable fit report: {exc}")
        return
    true_p = wl.TRUE_P[experiment]
    ops.check(
        abs(p - true_p) <= CI_WIDTHS * (hi - lo),
        f"{experiment}: fitted p {p:.6f}, CI [{lo:.6f}, {hi:.6f}], true p {true_p:.6f}",
    )


def same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def load_reference() -> dict:
    with open(os.path.join(HERE, "oracle_reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_oracle_reference(ops: Ops, values: dict, reference: dict):
    tol = reference["tolerance"]
    for rung, ref in reference["enumerated"].items():
        got = values.get(rung)
        ops.check(
            got is not None and abs(got - ref) <= tol,
            f"oracle {rung}: enumerated {got!r}, reference {ref!r}",
        )


def check_oracle_twins(ops: Ops):
    """Depolarizing, bias-0 twins of each rung: enumeration equals the decay model."""
    from mbqcrb.engine import SpamModel, exact_sequence_fidelity
    from mbqcrb.wire import NoiseModel

    noise = NoiseModel("depolarizing", wl.TWIN_DEPOLARIZING, "after-each-step")
    spam = SpamModel(**wl.ORACLE_SPAM)
    for variant, s in wl.oracle_rungs():
        protocol, mode, _ = wl.ORACLE_VARIANTS[variant]
        try:
            exact = exact_sequence_fidelity(
                protocol, s, noise, spam, bias=0.0, clifford_mode=mode
            )
            err = abs(exact.enumerated - exact.analytic)
        except ValueError:
            err = math.inf
        ops.check(err <= TWIN_TOL, f"twin {variant}.s{s}: |enumerated - analytic| = {err}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure_cold(workload: str, inputs: dict, seconds: float, workdir: str, ops: Ops):
    """Repeated passes of the workload's cold CLI calls; returns samples."""
    cold = ColdRunner(os.getcwd(), workdir, ops)
    cold.setup()  # untimed: lets the interpreter write its bytecode caches
    reference = load_reference() if workload == "oracle-ladder" else None
    setup, passes, first = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup += [cold.setup() for _ in range(SETUP_PER_PASS)]
        passdir = os.path.join(workdir, f"pass{len(passes) + 1}")
        os.makedirs(passdir)
        times, out = workload_pass(workload, cold, inputs, passdir)
        if workload == "oracle-ladder":
            if first is None:
                check_oracle_reference(ops, out, reference)
            else:
                ops.check(out == first, "oracle: a repeated ladder printed other values")
        else:
            for experiment, files in out.items():
                if first is None:
                    check_sampling(ops, experiment, files)
                else:
                    for a, b in zip(first[experiment], files):
                        ops.check(same_bytes(a, b), f"{os.path.basename(b)} differs on repeat")
        first = out if first is None else first
        passes.append(dict(times, pass_s=time.perf_counter() - t0))
        elapsed = time.perf_counter() - start
        step = benchlib.median(p["pass_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + step > seconds:
            break
        if elapsed + step > HARD_LIMIT_S:
            break
    if workload == "oracle-ladder":
        check_oracle_twins(ops)
    return {"setup_s": setup, "passes": passes, "max_rss_kb": cold.max_rss_kb, "processes": cold.calls}


def cold_metrics(samples: dict) -> tuple[dict, dict]:
    """End-to-end metrics and the per-command medians behind them."""
    passes = samples["passes"]
    commands = [k for k in passes[0] if k != "pass_s"]
    cli = [sum(p[k] for k in commands) for p in passes]
    metrics = {
        "setup_s": benchlib.median(samples["setup_s"]),
        "cli_s": benchlib.median(cli),
        "peak_rss_mb": samples["max_rss_kb"] / 1024.0,
    }
    detail = {k: [p[k] for p in passes] for k in commands}
    detail["cli_s"] = cli
    detail["setup_s"] = samples["setup_s"]
    return metrics, detail


def untraced_stage(workload: str, inputs: dict, workdir: str, ops: Ops) -> float:
    """One cold pass minus the set-up every process in it pays."""
    cold = ColdRunner(os.getcwd(), workdir, ops)
    cold.setup()
    setup = benchlib.median(cold.setup() for _ in range(SETUP_PER_PASS))
    passdir = os.path.join(workdir, "untraced")
    os.makedirs(passdir)
    calls = cold.calls
    times, _ = workload_pass(workload, cold, inputs, passdir)
    return sum(times.values()) - (cold.calls - calls) * setup


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "PyYAML": version("PyYAML"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def declared_metrics(root: str, trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mbqcrb", "cli.py")):
        print("run from the repository root: src/mbqcrb is missing", file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)
    sys.path.insert(0, os.path.join(root, "src"))

    outdir = os.path.join(HERE, "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(outdir, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    ops = Ops()
    env = environment(root)
    env["loadavg_before"] = os.getloadavg()
    try:
        inputs = wl.write_inputs(args.workload, args.seed, workdir)
        if args.trace:
            import traced

            untraced = untraced_stage(args.workload, inputs, workdir, ops)
            metrics, spans, values = traced.measure(
                args.workload, args.seed, args.seconds, workdir, ops, untraced
            )
            check_oracle_reference(ops, values, load_reference())
            detail, samples = benchlib.self_time_by_name(spans), {"untraced_stage_s": untraced}
        else:
            samples = measure_cold(args.workload, inputs, args.seconds, workdir, ops)
            metrics, detail = cold_metrics(samples)
            spans = []
    finally:
        env["loadavg_after"] = os.getloadavg()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units) or not all(map(benchlib.valid_metric_name, metrics)):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(outdir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"result": result, "detail": detail, "samples": samples,
             "failures": ops.failures, "environment": env, "spans": spans},
            fh, indent=1,
        )

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"environment: {json.dumps(env)}")
    if args.trace:
        print("largest self times by span name:")
        for name, v in sorted(detail.items(), key=lambda kv: -kv[1])[:10]:
            print(f"  {name}: {v:.4f} s")
        for k in units:
            print(f"{k} = {metrics[k]!r} {units[k]}")
    else:
        # Per-command times back the workload's cli_s; each line gives the
        # median, the quartiles and the sample count.
        for k, values in detail.items():
            q1, q2, q3 = benchlib.quartiles(values)
            print(f"{k} = {q2:.4f} s (median of {len(values)}; quartiles {q1:.4f} .. {q3:.4f})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']!r} MB (largest of {samples['processes']} processes)")
    print(f"ops_failed_share = {len(ops.failures) / max(ops.attempted, 1)!r} "
          f"({len(ops.failures)} failed of {ops.attempted} attempted)")
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
