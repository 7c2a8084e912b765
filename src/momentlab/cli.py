"""Command-line front door: run / presets / validate.

Exit codes: 0 on success (including runs whose experiments flag
non-convergence -- those are data, not crashes), 2 on config errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, check_output_dir, load_config, validate_config
from .presets import PRESETS, get_preset, list_presets
from .runner import run as run_experiment


def _cmd_run(args) -> int:
    if (args.config is None) == (args.preset is None):
        print("run: provide exactly one of --config or --preset", file=sys.stderr)
        return 2
    try:
        if args.config is not None:
            config = load_config(args.config)
        else:
            config = get_preset(args.preset).config
        params = dict(config.parameters)
        for item in args.override or ():
            key, sep, raw = item.partition("=")
            if not sep:
                raise ConfigError(f"--set {item!r}: expected key=jsonvalue")
            try:
                params[key] = json.loads(raw)
            except json.JSONDecodeError:
                params[key] = raw
        config = validate_config({**config.to_dict(), "parameters": params})
        if args.out is not None:
            check_output_dir(args.out, "--out")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config, out_dir=args.out)
    except ConfigError as e:       # checks that need the built experiment
        print(f"config error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report.results, sort_keys=True, default=str))
    return 0


def _cmd_presets(args) -> int:
    rows = list_presets()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(f"{r['name']:<{width}}  {r['claim']}")
        if args.verbose:
            print(f"{'':<{width}}  parameters: {json.dumps(r['parameters'], sort_keys=True)}")
    return 0


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    print(f"ok: command={config.command} sha256={config.content_hash()[:16]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentlab",
        description="Batch experiments on block second-moment measurements",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config or preset")
    p_run.add_argument("--config", help="path to a JSON experiment config")
    p_run.add_argument(
        "--preset", help=f"preset name ({', '.join(sorted(PRESETS))})"
    )
    p_run.add_argument("--out", default=None, help="output directory (default: cwd)")
    p_run.add_argument(
        "--set",
        dest="override",
        action="append",
        metavar="KEY=JSON",
        help="override a parameter (repeatable), e.g. --set restarts=20",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_presets = sub.add_parser("presets", help="list preset experiments")
    p_presets.add_argument("--json", action="store_true", help="machine-readable output")
    p_presets.add_argument("-v", "--verbose", action="store_true")
    p_presets.set_defaults(fn=_cmd_presets)

    p_val = sub.add_parser("validate", help="check a config file against the schema")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
