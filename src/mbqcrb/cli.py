"""Command-line front end: the commands that verify the gate sets, run
experiments, fit decays and evaluate the oracle.

Configs are YAML or JSON key/value files, read and checked by ``config``;
PyYAML is loaded only to read a config file that is not JSON. ``run`` and
``fit`` write their files through ``files``, and ``verify`` runs the suite in
``verify``: each command imports only the modules it runs, so ``oracle``
compiles neither. Angles in configs and reports are given in units of pi;
only the design pattern that ``verify`` prints writes its arccos(1/sqrt(3))
angle symbolically. All outputs embed the toolkit version and the full
config, and are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import MIN_RESAMPLES, __version__
from .config import ExperimentConfig, config_to_dict, load_config, parse_count
from .engine import run_protocol, sequence_fidelity_estimate, _exact_fidelity
from .gatesets import ACOS_SQRT3, clifford_group, derandomized_design  # perfbench's setup probe reads clifford_group here

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def format_angle_pi(theta: float) -> str:
    """Angle as a multiple of pi, or the symbolic design angle."""
    if abs(theta - ACOS_SQRT3) < 1e-12:
        return "acos(1/sqrt3)"
    return repr(round(theta / np.pi, 12))


def cmd_verify(args) -> int:
    from .verify import run_checks

    failed = run_checks(args.quiet, sys.stdout)
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
    from .files import _replaces_input, write_dataset

    config, code = _read_config(args.config, args.seed)
    if config is None:
        return code
    out = args.out or config.output or "dataset.csv"
    if _replaces_input(args.config, out):
        return EXIT_VALIDATION
    if config.verify_first:
        from .verify import run_checks

        if run_checks(quiet=True, fail_stream=sys.stderr):
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
    # imported here: oracle and verify never load files, and only fit loads fitting
    from .files import _replaces_input, _write_whole, read_dataset, write_curve_table, write_fit_report
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
    code, 2, is EXIT_IO here. An ``int`` argument is read by ``parse_count``,
    and argparse still names its type int in the error. Help is written and
    flushed here, where argparse would ignore a failed write, so a closed
    stdout reaches ``main``'s pipe guard. Subparsers are built of the same
    class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, parse_count)

    def print_help(self, file=None):
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()

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
    try:  # the help, too, is written inside parse_args
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # finds a closed stdout that a block buffer hid until exit
    except BrokenPipeError:  # as the Python documentation's note on SIGPIPE shows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit's flush
        return EXIT_IO
    return code


def __getattr__(name):
    # perfbench reads these three names here; they live in ``files`` and
    # ``verify``, loaded on first access. ROADMAP item 10 repoints perfbench
    # and drops this.
    if name in ("write_dataset", "read_dataset"):
        from . import files

        return getattr(files, name)
    if name == "DESIGN_TOL":
        from . import verify

        return verify.DESIGN_TOL
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
