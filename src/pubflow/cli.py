"""Command line interface.

Subcommands:
  validate       parse a workflow file and report structure facts
  simulate       run a workflow against a worker scenario
  generate-adapt emit the built-in advection-diffusion demo workflow
  audit          replay an event log through the order checkers
  report         summarize an event log

Exit codes: 0 success, 1 domain failure (cycle, failed or unfinished
simulation, audit violations), 2 bad usage, unreadable/malformed
input files or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .actors import SlaPolicy
from .errors import EngineError, MalformedLog, SchemaError, \
    WorkflowSyntaxError
from .graph import validate_structure
from .simulator import (
    Report,
    _fold,
    lifecycle_audit,
    parse_log,
    precedence_audit,
    run_simulation,
    scenario_from_dict,
)
from .execution import Workspace
from .workflow_io import parse_workflow, serialize_workflow


def _read(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileError(f"cannot read {path}: not UTF-8 text ({exc})") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, "utf-8")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc.strerror or exc}") from exc


class FileError(Exception):
    """Unreadable or unparseable input, or unwritable output; exit 2."""


def _load(path: str, parse):
    """Every input file is read and parsed here; each failure exits 2."""
    try:
        return parse(_read(path))
    except (json.JSONDecodeError, WorkflowSyntaxError, SchemaError,
            MalformedLog) as exc:
        raise FileError(f"{path}: {exc}") from exc


def _load_workflow(path: str, fmt: str):
    return _load(path, lambda text: parse_workflow(text, format=fmt))


def _load_json(path: str, load):
    return _load(path, lambda text: load(json.loads(text)))


def _show(report: Report, as_json: bool) -> None:
    """Print the report's document as JSON, or the fold's lines of it."""
    if as_json:
        print(json.dumps(vars(report), indent=2))
        return
    print(f"messages: {report.messages_total}")
    for channel, count in report.messages_by_channel.items():
        print(f"  {channel}: {count}")
    print(f"tasks seen: {report.tasks_seen}")
    print(f"re-executions: {report.re_executions}")
    print(f"timeouts: {report.timeouts}")
    print(f"duplicates: {report.duplicates}")
    print(f"makespan: {report.makespan}")
    print(f"completed: {'yes' if report.completed else 'no'}")


# ---------------------------------------------------------------- commands

def cmd_validate(args: argparse.Namespace) -> int:
    batch = _load_workflow(args.workflow, args.format)
    report = validate_structure(batch)
    edges = len(batch.edges())
    if args.json:
        doc = {
            "ok": report.ok,
            "tasks": len(batch.tasks),
            "edges": edges,
            "series_parallel": report.series_parallel,
            "cycle": report.cycle,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        sp = "yes" if report.series_parallel else "no"
        print(f"{len(batch.tasks)} tasks, {edges} edges, "
              f"series-parallel: {sp}")
        if not report.ok:
            print("cycle: " + " -> ".join(report.cycle or []),
                  file=sys.stderr)
    return 0 if report.ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    batch = _load_workflow(args.workflow, args.format)
    scenario = _load_json(args.scenario, scenario_from_dict)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    sla = SlaPolicy()
    if args.config:
        sla = _load_json(args.config, SlaPolicy.from_dict)
    try:
        workspace = Workspace(args.workspace) if args.workspace else None
    except (SchemaError, OSError) as exc:  # another format, or no dir
        raise FileError(str(exc)) from exc
    report, log = run_simulation(batch, scenario, sla=sla,
                                 workspace=workspace)
    if args.log:
        _write(args.log, log.dumps())
    _show(report, args.json)
    if not args.json:  # what the log cannot carry
        print(f"tasks: {report.tasks_total}")
        if report.horizon is not None:
            print(f"horizon: {report.horizon}")
        if report.per_worker_utilization:
            print("utilization:")
            for wid, use in report.per_worker_utilization.items():
                print(f"  {wid}: {use:.3f}")
    return 0 if report.completed else 1


def cmd_generate_adapt(args: argparse.Namespace) -> int:
    from .adapt import SimParams, generate_adapt_workflow  # loaded here
    params = SimParams(
        dt=args.dt,
        advection=args.advection,
        diffusion=args.diffusion,
        steps=args.iterations,
        bc=args.bc,
    )
    params.check_cfl(args.cells)
    batch = generate_adapt_workflow(
        partitions=args.partitions,
        iterations=args.iterations,
        cells=args.cells,
        params=params,
        edges=args.edges,
        unfold_solver=args.unfold_solver,
    )
    text = serialize_workflow(batch)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    tally = _fold(_load(args.log, parse_log))  # one fold, both audits
    batch = None
    if args.workflow:
        batch = _load_workflow(args.workflow, args.format)
    violations = precedence_audit(tally, batch) + lifecycle_audit(tally)
    if args.json:
        print(json.dumps({"ok": not violations, "violations": violations},
                         indent=2))
    else:
        if violations:
            for line in violations:
                print(line)
        else:
            print("clean")
    return 0 if not violations else 1


def cmd_report(args: argparse.Namespace) -> int:
    _show(Report.of(_fold(_load(args.log, parse_log))), args.json)
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pubflow",
        description="publish-subscribe workflow engine and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a workflow file")
    p.add_argument("workflow")
    p.add_argument("--format", choices=("json", "xml"), default="json")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run a workflow in the simulator")
    p.add_argument("workflow")
    p.add_argument("scenario")
    p.add_argument("--format", choices=("json", "xml"), default="json")
    p.add_argument("--config", help='SLA weights JSON, {"sla": {"w_r", '
                   '"w_s", "s_cap"}}; heartbeat timing is in the scenario')
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--log", help="write the event log (JSONL) here")
    p.add_argument("--workspace", help="dataset directory (default: temp)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate-adapt",
                       help="emit the advection-diffusion demo workflow")
    p.add_argument("--cells", type=int, default=64)
    p.add_argument("--partitions", type=int, default=4)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--advection", type=float, default=1.0)
    p.add_argument("--diffusion", type=float, default=0.1)
    p.add_argument("--bc", choices=("dirichlet0", "periodic"),
                   default="dirichlet0")
    p.add_argument("--edges", choices=("stencil", "barrier"),
                   default="stencil")
    p.add_argument("--unfold-solver", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate_adapt)

    p = sub.add_parser("audit", help="check an event log for order bugs")
    p.add_argument("log")
    p.add_argument("--workflow", help="cross-check against this workflow")
    p.add_argument("--format", choices=("json", "xml"), default="json")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("report", help="summarize an event log")
    p.add_argument("log")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
