"""Command-line driver.

    uotmorph run --config <path> [--workers N] [--seed S]
    uotmorph <stage> --config <path> [--stage-only] [--workers N] [--seed S]

Commands: run, the stages synth, template, transport, features and
correlate, analytic, export-slice.  A stage command runs the pipeline up to
that stage (completed stages are content-hash no-ops); with --stage-only it
runs that stage alone and requires the upstream artifacts to exist already.
Exit codes: 0 success, 2 config error, 3 data error, 4 solver failure.  The
UOTMORPH_LOG environment variable (debug/info/warning) selects log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .analytic import correlation_curves, write_curves_csv
from .errors import ConfigError, DataError, SolverError, UotmorphError
from .grid import load_field
from .pipeline import (
    STAGES,
    PipelineConfig,
    StageFailure,
    _check_keys,
    _integer,
    _number,
    load_config,
    run_pipeline,
)
from .stats import render_pgm_slice

log = logging.getLogger("uotmorph")

# exit code and stderr label per error class, first match
_EXITS = ((ConfigError, 2, "config error: "), (DataError, 3, "data error: "),
          (SolverError, 4, "solver failure: "), (BaseException, 4, ""))


def _setup_logging():
    level = os.environ.get("UOTMORPH_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _apply_overrides(cfg: PipelineConfig, args) -> PipelineConfig:
    updates = {}
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_pipeline(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    run_pipeline(cfg, args.upto, args.stage_only)
    log.info("%s complete: %s", args.command, cfg.output_dir)
    return 0


def _cmd_analytic(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read analytic config: {exc}") from exc
    _check_keys(raw, {"p", "n_max", "panels"}, "analytic config")
    panels = raw.get("panels")
    if not panels or not isinstance(panels, list):
        raise ConfigError("analytic config needs a non-empty 'panels' list")
    base = os.path.dirname(os.path.abspath(args.config))
    tables = []
    for panel in panels:
        _check_keys(panel, {"t_h", "t_p_list", "p", "n_max", "output"}, "panel")
        for key in ("t_h", "t_p_list", "output"):
            if key not in panel:
                raise ConfigError(f"panel is missing {key!r}")
        try:
            t_h = _number(panel["t_h"])
            t_p_list = list(map(_number, panel["t_p_list"]))
            p = _number(panel.get("p", raw.get("p", 0.5)))
            n_max = _integer(panel.get("n_max", raw.get("n_max", 200)))
            out = os.path.join(base, panel["output"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value in panel {panel!r}: {exc}") from None
        rows = correlation_curves(t_h=t_h, t_p_list=t_p_list, p=p, n_max=n_max)
        tables.append((rows, out))
    # every panel is checked before the first file is written
    for rows, out in tables:
        write_curves_csv(rows, out)
        log.info("wrote %s (%d rows)", out, len(rows))
    return 0


def _cmd_export_slice(args) -> int:
    _domain, field = load_field(args.input)
    render_pgm_slice(
        field, args.output, axis=args.axis, index=args.index, bound=args.bound
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uotmorph",
        description="Unbalanced optimal transport morphometry pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run",) + STAGES:
        p = sub.add_parser(name, help=f"{name} stage" if name != "run" else
                           "run the full pipeline")
        p.add_argument("--config", required=True)
        if name != "run":
            p.add_argument("--stage-only", action="store_true",
                           help="do not run missing upstream stages")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=_cmd_pipeline, stage_only=False,
                       upto=STAGES[-1] if name == "run" else name)

    p = sub.add_parser("analytic", help="closed-form correlation curves")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("export-slice", help="render a PGM slice of a map")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--axis", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--bound", type=float, default=0.65)
    p.set_defaults(func=_cmd_export_slice)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UotmorphError as exc:
        # a stage failure exits by its cause, with the stage's own message
        stage = isinstance(exc, StageFailure)
        if stage:
            log.error("%s", exc)
        code, label = next((code, label) for cls, code, label in _EXITS
                           if isinstance(exc.cause if stage else exc, cls))
        print(f"uotmorph: {'' if stage else label}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
