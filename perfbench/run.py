"""pubflow's benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload adapt-flaky --seed 1 --seconds 40 --trace 0

--trace 0  starts repetitions until --seconds have passed, at least
           MIN_REPS of them.  A repetition is a fresh interpreter that
           parses the inputs once (setup_s) and then runs rounds of
           simulate, audit and report for about REP_SECONDS (see rep.py);
           its sample of each host time is the median over its rounds, in
           reference seconds (wall seconds scaled by a fixed reference
           job timed around each call; see rep.Clock).  The run prints
           the median over repetitions of each host time and of peak RSS,
           and the simulated counts, which are exact for a seed.
--trace 1  runs one traced round and prints the per-layer metrics.

Every round is gated: the batch completes, both audits are clean, every
round of the seed writes the same log bytes, the simulator's, `pubflow
report`'s and the log's channel counts agree, and on ADAPT the final
snapshot equals sequential_oracle bit for bit.  The traced round must also
write the same log as an untraced one, its per-layer self times must sum
to its simulate call's wall time within TRACE_SLACK, and Monitor.timeouts
and Checker.duplicates must match the log.  A failed gate counts the round
as failed and makes "correct" false.

The last line of stdout is one JSON object: correct, attempted (rounds),
failed and metrics (name -> {value, unit}).  Inputs, logs and workspaces
live in .perfbench-work/ under the checkout; the run's own directory is
removed at exit, the traced run's spans stay in
.perfbench-work/spans-NAME.npz.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(ROOT / "src"))

import logstats  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("sim_wall_s", "s"),
    ("audit_s", "s"),
    ("report_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("makespan_ticks", "ticks"),
    ("messages_total", "envelopes"),
    ("log_bytes", "bytes"),
    ("failed_attempt_share", "ratio"),
)
# Measured per repetition; the rest are read from the event log.
HOST_METRICS = ("setup_s", "sim_wall_s", "audit_s", "report_s",
                "peak_rss_mb")


def _timed(name: str, *, calls: bool = True) -> list[tuple[str, str, str]]:
    out = [(f"{name}.calls", "count", "lower")] if calls else []
    return out + [(f"{name}.self_s", "s", "lower")]


# (name, unit, better) of every per-layer metric, grouped by layer.
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    _timed("bus.publish")
    + _timed("bus.log_append", calls=False)
    + [("bus.serialized_bytes", "bytes", "lower")]
    + _timed("bus.drain")
    + [("bus.deliveries", "count", "lower"),
       ("bus.drain.empty_share", "ratio", "lower")]
    + _timed("bus.messages_by_channel", calls=False)
    + [(f"bus.msgs.{kind}", "count", "lower") for kind in logstats.KINDS]
    + [("bus.volunteers_per_task", "1/task", "lower")]
    + [m for cls in ("Broker", "Coordinator", "WorkerActor", "Monitor",
                     "Checker") for m in _timed(f"actors.{cls}.step")]
    + _timed("actors.select_worker")
    + [("actors.volunteer_yield", "ratio", "higher"),
       ("actors.volunteer_dup_share", "ratio", "lower"),
       ("actors.monitor_timeouts", "count", "lower"),
       ("actors.checker_duplicates", "count", "lower"),
       ("actors.attempts_started", "count", "lower")]
    + [m for method in ("put", "get", "has_ready", "record", "sizes",
                        "checksum")
       for m in _timed(f"execution.Workspace.{method}")]
    + [("execution.Workspace.put.bytes", "bytes", "lower"),
       ("execution.Workspace.get.bytes", "bytes", "lower"),
       ("execution.checksum_hex.bytes", "bytes", "lower")]
    + _timed("execution.checksum_hex", calls=False)
    + _timed("execution.encode_dataset")
    + _timed("execution.decode_dataset")
    + _timed("execution.execute_kernel", calls=False)
    + [m for kernel in ("metis", "matrix", "init", "mumps",
                        "mumps_factorize", "mumps_solve", "iter", "save",
                        "noop")
       for m in _timed(f"adapt.kernel.{kernel}")]
    + [("adapt.iter.cells_per_s", "1/s", "higher")]
    + _timed("graph.ready_tasks")
    + [("graph.ready_tasks.tasks_scanned", "count", "lower")]
    + _timed("graph.unfold")
    + _timed("workflow_io.parse_workflow", calls=False)
    + _timed("workflow_io.task_to_obj")
    + _timed("workflow_io.task_from_obj")
    + [("simulator.ticks", "ticks", "lower")]
    + _timed("simulator.loop", calls=False)
    + [("simulator.loop.us_per_tick", "us", "lower"),
       ("simulator.idle_tick_share", "ratio", "lower")]
    + _timed("simulator.parse_log")
    + _timed("simulator.precedence_audit", calls=False)
    + _timed("simulator.lifecycle_audit", calls=False)
    + _timed("cli.report", calls=False)
    + [("trace.overhead_s", "s", "lower"),
       ("trace.unattributed_share", "ratio", "lower")]
)

MIN_REPS = 3
# Each repetition is one fresh interpreter that repeats simulate, audit and
# report for about this long; its per-call medians are one sample.  Set-up
# is timed once per interpreter, so setup_s is a median over repetitions.
REP_SECONDS = 4.0
# No new repetition starts once the run could pass this many seconds.
RUN_BUDGET_S = 150.0
REP_TIMEOUT_S = 150.0
# Allowed |traced simulate wall time - sum of per-layer self times| share.
TRACE_SLACK = 0.02


# ------------------------------------------------------------ repetitions

def spawn(workdir: Path, mode: str, tag: str,
          *extra: str) -> tuple[Optional[dict], str]:
    """Run rep.py in a fresh interpreter; (result, error message)."""
    argv = [sys.executable, str(HERE / "rep.py"), str(workdir), mode, tag,
            *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"repetition {tag} timed out after {REP_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, (f"repetition {tag} exited {proc.returncode}: "
                      + " | ".join(tail))
    return json.loads(lines[-1]), ""


def gate(res: dict, counters: logstats.LogCounters, ref_sha: str) -> list[str]:
    """Reasons this round's output is wrong; empty when it is right."""
    problems = []
    if not res["completed"]:
        problems.append("the batch did not complete")
    if res["violation_count"]:
        problems.append(f"{res['violation_count']} audit violations, first: "
                        f"{res['violations'][0]}")
    if res["oracle_ok"] is False:
        problems.append("final snapshot differs from sequential_oracle")
    if res["log_sha256"] != ref_sha:
        problems.append("log differs from the first log of this seed")
    doc = res["report"]
    if doc is None:
        problems.append("pubflow report failed")
        return problems
    sim = res["sim"]
    if not (sim["messages_by_channel"] == doc["messages_by_channel"]
            == counters.by_channel):
        problems.append("channel counts of SimReport, pubflow report and "
                        "the log disagree")
    if not (sim["messages_total"] == doc["messages_total"]
            == counters.messages_total):
        problems.append("message totals disagree")
    if not (sim["makespan"] == doc["makespan"] == counters.makespan):
        problems.append("makespans disagree")
    if not doc["completed"] or not counters.completed:
        problems.append("the log has no complete Emergency envelope")
    return problems


def read_counters(res: dict) -> tuple[Optional[logstats.LogCounters], str]:
    try:
        return logstats.count_log(Path(res["log"]).read_text("utf-8")), ""
    except (OSError, ValueError, KeyError) as exc:
        return None, f"cannot count the log: {exc}"


# ---------------------------------------------------------------- metrics

def end_to_end(reps: list[dict], counters: logstats.LogCounters) -> dict:
    """Medians over repetitions of each repetition's sample."""
    values = {name: statistics.median(sample(rep, name) for rep in reps)
              for name in HOST_METRICS}
    values.update(makespan_ticks=counters.makespan,
                  messages_total=counters.messages_total,
                  log_bytes=counters.log_bytes,
                  failed_attempt_share=counters.failed_attempt_share)
    return values


def sample(rep: dict, name: str) -> float:
    """A repetition's value: measured once, or the median over its rounds."""
    if name in rep:
        return rep[name]
    return statistics.median(r[name] for r in rep["rounds"])


def wall_sample(rep: dict, name: str) -> float:
    """The same for the wall seconds behind a host time."""
    if name in rep["wall"]:
        return rep["wall"][name]
    return statistics.median(r["wall"][name] for r in rep["rounds"])


def per_layer(res: dict, counters: logstats.LogCounters) -> dict:
    spans = res["span_times"]
    counts = res["counts"]
    loop_self = spans["simulator.loop"][1]
    iter_self = spans["adapt.kernel.iter"][1]
    drains = spans["bus.drain"][0]
    special = {
        "bus.serialized_bytes": counts.get("bus.serialized_bytes", 0),
        "bus.deliveries": counts.get("bus.deliveries", 0),
        "bus.drain.empty_share":
            counts.get("bus.drain.empty", 0) / drains if drains else 0.0,
        "bus.volunteers_per_task": counters.volunteers_per_task,
        "actors.volunteer_yield": counters.volunteer_yield,
        "actors.volunteer_dup_share": counters.volunteer_dup_share,
        "actors.monitor_timeouts": counters.monitor_timeouts,
        "actors.checker_duplicates": counters.checker_duplicates,
        "actors.attempts_started": counters.attempts_started,
        "execution.Workspace.put.bytes":
            counts.get("execution.Workspace.put.bytes", 0),
        "execution.Workspace.get.bytes":
            counts.get("execution.Workspace.get.bytes", 0),
        "execution.checksum_hex.bytes":
            counts.get("execution.checksum_hex.bytes", 0),
        "adapt.iter.cells_per_s":
            counts.get("adapt.iter.cells", 0) / iter_self if iter_self
            else 0.0,
        "graph.ready_tasks.tasks_scanned":
            counts.get("graph.ready_tasks.tasks_scanned", 0),
        "simulator.ticks": counters.ticks,
        "simulator.loop.us_per_tick": 1e6 * loop_self / counters.ticks,
        "simulator.idle_tick_share": counters.idle_tick_share,
        "trace.overhead_s": res["traced_sim_wall_s"] - res["plain_sim_wall_s"],
        "trace.unattributed_share": unattributed_share(res),
    }
    special.update({f"bus.msgs.{kind}": counters.by_kind.get(kind, 0)
                    for kind in logstats.KINDS})
    values = {}
    for name, _unit, _better in PER_LAYER:
        if name in special:
            values[name] = special[name]
        elif name.endswith(".calls"):
            values[name] = spans[name[:-len(".calls")]][0]
        else:
            values[name] = spans[name[:-len(".self_s")]][1]
    return values


def unattributed_share(res: dict) -> float:
    wall = res["traced_sim_wall_s"]
    return (wall - sum(res["layer_self_s"].values())) / wall


def trace_gate(res: dict, counters: logstats.LogCounters) -> list[str]:
    problems = []
    if res["plain_log_sha256"] != res["log_sha256"]:
        problems.append("the traced run wrote another log than the "
                        "untraced one")
    share = unattributed_share(res)
    if abs(share) > TRACE_SLACK:
        problems.append(f"per-layer self times miss {share:.2%} of the "
                        f"traced simulate call (slack {TRACE_SLACK:.0%})")
    actor = res["actor_counters"]
    if actor["monitor_timeouts"] != counters.monitor_timeouts:
        problems.append("Monitor.timeouts disagrees with the log")
    if actor["checker_duplicates"] != counters.checker_duplicates:
        problems.append("Checker.duplicates disagrees with the log")
    return problems


# -------------------------------------------------------------------- run

def write_inputs(workdir: Path, workload: workloads.Workload) -> None:
    (workdir / "workflow.json").write_text(workload.workflow_text, "utf-8")
    (workdir / "scenario.json").write_text(
        json.dumps(workload.scenario, indent=2) + "\n", "utf-8")
    if workload.oracle is not None:
        (workdir / "oracle.json").write_text(
            json.dumps(workload.oracle) + "\n", "utf-8")


def measure(workdir: Path, seconds: float) -> tuple[list, list[str]]:
    """Repetitions until `seconds` have passed (at least MIN_REPS); the
    last one starts only if it would likely end less than half a
    repetition after `seconds`."""
    reps: list[Optional[dict]] = []
    errors: list[str] = []
    rep_seconds = min(REP_SECONDS, seconds / (MIN_REPS + 1))
    began = time.monotonic()
    durations: list[float] = []
    while True:
        elapsed = time.monotonic() - began
        typical = statistics.median(durations) if durations else 0.0
        if len(reps) >= MIN_REPS and elapsed + typical / 2 > seconds:
            break
        if reps and elapsed + 1.5 * max(durations) > RUN_BUDGET_S:
            break
        started = time.monotonic()
        rep, error = spawn(workdir, "plain", str(len(reps)),
                           str(rep_seconds))
        durations.append(time.monotonic() - started)
        reps.append(rep)
        if error:
            errors.append(error)
    return reps, errors


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "pubflow" / "__init__.py").is_file():
        print(f"error: no pubflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.generate(args.workload, args.seed, args.size)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        write_inputs(workdir, workload)
        if args.trace:
            rep, error = spawn(workdir, "trace", "traced",
                               str(WORK / f"spans-{args.workload}.npz"))
            reps, errors = [rep], [error] if error else []
        else:
            reps, errors = measure(workdir, args.seconds)
        return report(args, reps, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args: argparse.Namespace, reps: list[Optional[dict]],
           errors: list[str]) -> int:
    done = [r for r in reps if r is not None]
    rounds = [r for rep in done for r in rep.get("rounds", [rep])]
    if not rounds:
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    counters, error = read_counters(rounds[0])
    if counters is None:
        print(error, file=sys.stderr)
        return 1
    failed = len(reps) - len(done)
    problems = list(errors)
    for res in rounds:
        found = gate(res, counters, rounds[0]["log_sha256"])
        if args.trace:
            found += trace_gate(res, counters)
        if found:
            failed += 1
            problems += found

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(done)} of {len(reps)} repetitions ran {len(rounds)} rounds, "
          f"{failed} failed")
    for problem in sorted(set(problems)):
        print(f"GATE FAILED: {problem}")
    if args.trace:
        res = rounds[0]
        values = per_layer(res, counters)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"spans: {res['spans']}; simulate call "
              f"{res['traced_sim_wall_s']:.3f} s traced, "
              f"{res['plain_sim_wall_s']:.3f} s untraced; unattributed "
              f"{unattributed_share(res):.3%} (slack {TRACE_SLACK:.0%})")
        for layer, self_s in sorted(res["layer_self_s"].items(),
                                    key=lambda item: -item[1]):
            if self_s:
                print(f"  {layer:<12} {self_s:9.4f} s self in simulate")
    else:
        values = end_to_end(done, counters)
        units = dict(END_TO_END)
        for name in HOST_METRICS:
            samples = [sample(rep, name) for rep in done]
            print(f"{name:<22} {values[name]:.6g} {units[name]} (median of "
                  f"{len(samples)} repetitions; min {min(samples):.6g}, "
                  f"max {max(samples):.6g})")
            print("  per repetition: "
                  + " ".join(f"{v:.4g}" for v in samples))
            if name != "peak_rss_mb":
                walls = [wall_sample(rep, name) for rep in done]
                print(f"  wall seconds: median {statistics.median(walls):.4g}"
                      "; per repetition: "
                      + " ".join(f"{v:.4g}" for v in walls))
        for name in ("makespan_ticks", "messages_total", "log_bytes"):
            print(f"{name:<22} {values[name]} {units[name]}")
        print(f"{'failed_attempt_share':<22} "
              f"{values['failed_attempt_share']:.6g} ratio "
              f"({counters.attempts_failed} of {counters.attempts_started} "
              "attempts started got no ok verdict)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(rounds) + len(reps) - len(done),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny is for the benchmark's own tests")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
