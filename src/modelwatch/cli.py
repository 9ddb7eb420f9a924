"""Command-line interface.

Subcommands run either the full monitoring pipeline (``monitor``) or a
single section (``quality``, ``drift``, ``concept-drift``, ``conformal``,
``weakness``, ``robustness``); ``report`` re-renders a saved report file.
Exit codes are a stable CI contract: 0 all pass, 3 warns only, 4 any fail,
2 usage or config error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .config import MonitorConfig, build_config, parse_config
from .errors import ConfigError, ModelWatchError
from .report import (
    MonitoringReport,
    RunInputs,
    collect_alerts,
    exit_code,
    exit_code_for,
    render_report,
    run_monitor,
    run_stage,
)

# command -> (report section it runs, help text)
SECTION_COMMANDS = {
    "quality": ("data_quality", "data-quality profile of the current dataset"),
    "drift": ("drift", "reference-to-current distribution shift scan"),
    "concept-drift": ("concept_drift", "concept vs input drift diagnosis"),
    "conformal": ("uncertainty", "conformal uncertainty summary"),
    "weakness": ("weakness", "segment weakness tables"),
    "robustness": ("robustness", "noise sensitivity and invariance tests"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelwatch",
        description="Validation and monitoring toolkit for tabular predictive models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="write output to this path instead of stdout")
        return cmd

    monitor = add_run_command("monitor", "run the full monitoring pipeline")
    monitor.add_argument("--format", choices=("json", "text"), default="json")

    for name, (_, help_text) in SECTION_COMMANDS.items():
        add_run_command(name, help_text)

    report = sub.add_parser("report", help="re-render a saved report")
    report.add_argument("--in", dest="in_path", required=True, help="saved report JSON")
    report.add_argument("--format", choices=("json", "text"), default="text")
    report.add_argument("--out", default=None)
    return parser


def _load_config(args) -> MonitorConfig:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = build_config({**cfg.effective, "seed": args.seed}, base_dir=cfg.data.base_dir)
    return cfg


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "report":
            keys = [f.name for f in fields(MonitoringReport)]
            try:
                with open(args.in_path, encoding="utf-8") as fh:
                    doc = json.load(fh)  # its decode errors are ValueErrors too
                missing = [key for key in keys if key not in doc] if isinstance(doc, dict) else keys
                if missing:
                    raise ValueError(f"not a saved report: missing keys {missing}")
            except ValueError as exc:
                sys.stderr.write(f"error: {args.in_path}: {exc}\n")
                return 2
            try:
                text = render_report(MonitoringReport(**{key: doc[key] for key in keys}), args.format)
            except (AttributeError, KeyError, TypeError) as exc:  # a section or alert of another shape
                sys.stderr.write(f"error: {args.in_path}: not a saved report: {exc!r}\n")
                return 2
            _emit(text, args.out)
            return 0

        cfg = _load_config(args)
        if args.command == "monitor":
            report = run_monitor(cfg)
            _emit(render_report(report, args.format), args.out)
            return exit_code_for(report)

        section_name = SECTION_COMMANDS[args.command][0]
        section = run_stage(section_name, cfg, RunInputs(cfg))
        alerts = collect_alerts({section_name: section})
        doc = {"section": section_name, "result": section, "alerts": alerts}
        _emit(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", args.out)
        return exit_code(section["status"] != "error", alerts)

    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ModelWatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # keep the CLI contract: internal errors exit 1
        sys.stderr.write(f"internal error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
