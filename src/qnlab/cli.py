"""Command-line entry point.

One subcommand per registered experiment (including the ``suite:...``
verification suites), plus:

* ``list`` — print the experiment catalogue with each experiment's
  parameters and their defaults;
* ``run EXPERIMENT`` — run an experiment named positionally;
* ``suite`` — run every ``suite:...`` entry in catalogue order at its
  defaults (flags: ``--seed --output``).

Flags: ``--seed --dim --samples --trials --budget --tolerance --theta
--p --group --characters --space (repeatable) --output --config``.  An
experiment takes ``--seed``, ``--output`` and the parameters it declares;
any other flag is a configuration error.  A ``--config`` JSON file is
merged over the flags: keys present in the file override flag values.

Exit codes: 0 when all verdicts pass (observational runs always exit 0 on
completion), 1 when a verdict fails, 2 on configuration or runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .harness import ExperimentConfig, list_experiments, run, suite_names


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    parser.add_argument("--dim", type=int, default=None, help="dimension of the interp pair")
    parser.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
    parser.add_argument("--trials", type=int, default=None, help="instance count for sweeps")
    parser.add_argument("--budget", type=int, default=None, help="search budget knob")
    parser.add_argument("--tolerance", type=float, default=None, help="verdict tolerance")
    parser.add_argument("--theta", type=float, default=None, help="interpolation parameter")
    parser.add_argument("--p", type=float, default=None, help="gauge/moment exponent")
    parser.add_argument("--group", type=str, default=None, help="group string, e.g. 2,2 or z2^3")
    parser.add_argument("--characters", type=str, default=None, help="sidon character set: coordinate or all")
    parser.add_argument(
        "--space",
        action="append",
        default=None,
        metavar="SPEC",
        help="space string (repeatable), e.g. 'lp p=0.5 dim=3'",
    )
    parser.add_argument("--output", type=str, default=None, help="report path (.json or .csv)")
    parser.add_argument(
        "--config", type=str, default=None, help="JSON config file; overrides flags"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnlab",
        description="desk-scale experiments on finite-dimensional quasi-normed spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print the experiment catalogue")
    runner = sub.add_parser("run", help="run an experiment named positionally")
    runner.add_argument("experiment", help="experiment name from `qnlab list`")
    _add_common_flags(runner)
    suite = sub.add_parser("suite", help="run every verification suite in order")
    suite.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    suite.add_argument("--output", type=str, default=None, help="base report path, one file per suite")
    for entry in list_experiments():
        p = sub.add_parser(entry["name"], help=entry["description"])
        _add_common_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    flags: dict = {"experiment": experiment}
    for f in fields(ExperimentConfig):
        if f.name in ("experiment", "spaces"):
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            flags[f.name] = value
    if getattr(args, "space", None):
        flags["spaces"] = tuple(args.space)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            file_data = json.load(fh)
        if not isinstance(file_data, dict):
            raise ValueError("config file must hold a JSON object")
        flags.update(file_data)
    return ExperimentConfig.from_dict(flags)


def _print_report(report) -> None:
    print(f"== {report.experiment}: {report.header}")
    for v in report.verdicts:
        mark = "pass" if v["passed"] else "FAIL"
        print(f"  [{mark}] {v['name']}: {v['detail']}")
    if report.observational:
        status = "OBSERVATIONAL (complete)"
    else:
        status = "PASS" if report.passed else "FAIL"
    print(
        f"  {status}: {len(report.records)} records, "
        f"{report.wallclock_seconds:.2f}s"
        + (f" -> {report.config.output}" if report.config.output else "")
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for entry in list_experiments():
                tag = " (observational)" if entry["observational"] else ""
                print(f"{entry['name']:24s} {entry['description']}{tag}")
                params = ", ".join(
                    f"{k}={'(derived)' if v in (None, ()) else json.dumps(v)}"
                    for k, v in entry["parameters"].items()
                )
                print(f"{'':24s} parameters: {params or 'none'}")
            return 0
        if args.command == "suite":
            worst = 0
            for name in suite_names():
                try:
                    config = _config_from_args(args, name)
                    if config.output:
                        base, ext = os.path.splitext(config.output)
                        safe = name.replace(":", "-")
                        config = replace(config, output=f"{base}-{safe}{ext or '.json'}")
                    report = run(config)
                except Exception as exc:  # noqa: BLE001 - keep later suites running
                    print(f"== {name}: ERROR {exc}", file=sys.stderr)
                    worst = max(worst, 2)
                    continue
                _print_report(report)
                worst = max(worst, report.exit_code)
            return worst
        experiment = args.experiment if args.command == "run" else args.command
        config = _config_from_args(args, experiment)
        report = run(config)
        _print_report(report)
        return report.exit_code
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
