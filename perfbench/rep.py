"""One measured repetition, run by run.py in a fresh interpreter.

    python3 perfbench/rep.py WORKDIR plain TAG SECONDS
    python3 perfbench/rep.py WORKDIR trace TAG SPANS.npz

Reads WORKDIR/workflow.json and WORKDIR/scenario.json (and, for ADAPT
workloads, WORKDIR/oracle.json), runs what `pubflow simulate`, `pubflow
audit --workflow` and `pubflow report --json` run, in process, and prints
one JSON object on stdout.  Event logs go to WORKDIR/log-*.jsonl; the
run's workspace directory is removed before exit.

plain  times setup once, then repeats rounds of simulate, audit and
       report until SECONDS have passed since setup began,
       and reads the process's peak RSS right after the first simulate
       call.  Every timed call is bracketed by runs of reference() and
       reported in reference seconds (see Clock); its wall time is
       reported beside it.
trace  simulates once untraced, then again with every layer traced,
       audits and reports traced, and writes the spans to SPANS.npz.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


# The host's single-thread speed swings by up to 2x within seconds and
# drifts over minutes, for every process alike (README.md, "Reference
# seconds").
# A fixed pure-Python job run just before and just after a timed call
# measures the speed the call ran at; REFERENCE_S is the job's nominal time.
REFERENCE_S = 0.05
REFERENCE_LOOPS = 6000


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def mix(self, x: int) -> int:
        return self.a + x * self.b


def reference() -> float:
    """Wall seconds of one fixed job in the style of pubflow's hot paths:
    small objects, dicts, f-strings, comprehensions and JSON round trips."""
    t0 = perf_counter()
    totals: dict[str, int] = {}
    for i in range(REFERENCE_LOOPS):
        probe = _Probe(i, i & 7)
        text = json.dumps({"seq": i, "kind": "volunteer",
                           "task": f"t{i % 97:04d}", "v": probe.mix(3)},
                          sort_keys=True)
        back = json.loads(text)
        totals[back["task"]] = totals.get(back["task"], 0) + back["v"]
        totals["n"] = totals.get("n", 0) + sum([k for k in range(i % 13)])
    return perf_counter() - t0


class Clock:
    """Times calls by name: `wall[name]` holds the last call's wall seconds
    and `seconds[name]` its sample.  The sample is the wall time itself,
    or, when `scaled`, the wall time in reference seconds: wall seconds
    times REFERENCE_S over the mean of the reference() runs just before
    and just after the call, that is the seconds the call would take at
    the speed where the reference job takes REFERENCE_S."""

    def __init__(self, scaled: bool = False) -> None:
        self.scaled = scaled
        self.wall: dict[str, float] = {}
        self.seconds: dict[str, float] = {}
        if scaled:
            reference()  # warm-up; not used
            self.rebase()

    def rebase(self) -> None:
        """Measure the speed afresh after untimed work."""
        if self.scaled:
            self.before = reference()

    def __call__(self, name: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        wall = perf_counter() - t0
        self.wall[name] = self.seconds[name] = wall
        if self.scaled:
            after = reference()
            self.seconds[name] = wall * 2 * REFERENCE_S / (self.before + after)
            self.before = after
        return out


def direct(name, fn, *args, **kwargs):
    """The untraced counterpart of Tracer.call."""
    return fn(*args, **kwargs)


def load(workdir: Path):
    """Fresh interpreter to parsed batch and scenario (setup_s)."""
    import pubflow
    text = (workdir / "workflow.json").read_text("utf-8")
    batch = pubflow.parse_workflow(text)
    scenario = pubflow.scenario_from_dict(
        json.loads((workdir / "scenario.json").read_text("utf-8")))
    return text, batch, scenario


def simulate(batch, scenario, workdir: Path, tag: str, call=direct,
             clock: Clock | None = None):
    from pubflow import Workspace, run_simulation
    clock = clock or Clock()
    workspace = Workspace(workdir / f"ws-{tag}")
    log_path = workdir / f"log-{tag}.jsonl"
    report, _log = clock("sim_wall_s", call, "simulator.loop",
                         run_simulation, batch, scenario,
                         workspace=workspace, log_path=log_path)
    return report, workspace, log_path, clock.seconds["sim_wall_s"]


def audit(text: str, batch, call=direct) -> list[str]:
    """What `pubflow audit LOG --workflow WF` checks; a malformed log
    (bad JSON, seq gap) is reported as one violation."""
    from pubflow import MalformedLog, lifecycle_audit, precedence_audit
    try:
        violations = call("simulator.precedence_audit", precedence_audit,
                          text, batch)
        violations += call("simulator.lifecycle_audit", lifecycle_audit, text)
    except MalformedLog as exc:
        return [f"malformed log: {exc}"]
    return violations


def report(log_path: Path, call=direct) -> dict | None:
    """`pubflow report LOG --json` in process; None when it exits non-zero."""
    from pubflow import cli
    out = io.StringIO()
    with redirect_stdout(out):
        code = call("cli.report", cli.main, ["report", str(log_path), "--json"])
    return json.loads(out.getvalue()) if code == 0 else None


def snapshot_matches_oracle(workspace, oracle: dict) -> bool:
    """Bit-for-bit equality of the final snapshot and sequential_oracle."""
    from pubflow import (EngineError, SimParams, final_snapshot,
                         sequential_oracle)
    params = SimParams(dt=oracle["dt"], advection=oracle["advection"],
                       diffusion=oracle["diffusion"],
                       steps=oracle["iterations"],
                       source=tuple(oracle["source"]))
    try:
        got = final_snapshot(workspace, oracle["iterations"])
    except EngineError:
        return False
    want = sequential_oracle(oracle["cells"], params)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


def outcome(sim_report, workspace, log_path: Path, batch, oracle,
            call=direct, clock: Clock | None = None) -> dict:
    """Everything run.py's gates need about one simulate call, timed."""
    clock = clock or Clock()
    text = log_path.read_text("utf-8")
    clock.rebase()
    violations = clock("audit_s", audit, text, batch, call)
    doc = clock("report_s", report, log_path, call)
    return {
        "audit_s": clock.seconds["audit_s"],
        "report_s": clock.seconds["report_s"],
        "completed": sim_report.completed,
        "sim": {"makespan": sim_report.makespan,
                "messages_total": sim_report.messages_total,
                "messages_by_channel": sim_report.messages_by_channel},
        "report": doc,
        "violations": violations[:5],
        "violation_count": len(violations),
        "oracle_ok": (None if oracle is None
                      else snapshot_matches_oracle(workspace, oracle)),
        "log": str(log_path),
        "log_sha256": hashlib.sha256(log_path.read_bytes()).hexdigest(),
    }


def run_plain(workdir: Path, tag: str, oracle, seconds: float) -> dict:
    """Setup once, then rounds of simulate, audit and report until
    `seconds` have passed since setup began; at least one round."""
    began = perf_counter()
    clock = Clock(scaled=True)
    _text, batch, scenario = clock("setup_s", load, workdir)
    setup = {"setup_s": clock.seconds["setup_s"],
             "wall": {"setup_s": clock.wall["setup_s"]}}
    from pubflow import cli  # noqa: F401  (imported before report_s starts)
    rounds: list[dict] = []
    peak_rss_mb = None
    while not rounds or perf_counter() - began < seconds:
        clock.rebase()
        sim_report, workspace, log_path, sim_wall_s = simulate(
            batch, scenario, workdir, f"{tag}-{len(rounds)}", clock=clock)
        if peak_rss_mb is None:
            peak_rss_mb = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            result = outcome(sim_report, workspace, log_path, batch, oracle,
                             clock=clock)
        finally:
            shutil.rmtree(workspace.root, ignore_errors=True)
        result["sim_wall_s"] = sim_wall_s
        result["wall"] = dict(clock.wall)
        if rounds:  # run.py reads only the first round's log
            log_path.unlink()
        rounds.append(result)
    return {**setup, "peak_rss_mb": peak_rss_mb, "rounds": rounds}


def run_traced(workdir: Path, tag: str, oracle, spans_path: Path) -> dict:
    from tracer import Tracer

    text, batch, scenario = load(workdir)
    _report, workspace, plain_log, plain_wall = simulate(
        batch, scenario, workdir, f"{tag}-plain")
    shutil.rmtree(workspace.root, ignore_errors=True)

    tracer = Tracer()
    tracer.install()
    try:
        from pubflow import parse_workflow
        batch = tracer.call("workflow_io.parse_workflow", parse_workflow,
                            text)
        first = len(tracer.name_id)
        sim_report, workspace, log_path, traced_wall = simulate(
            batch, scenario, workdir, tag, tracer.call)
        last = len(tracer.name_id)
        try:
            result = outcome(sim_report, workspace, log_path, batch, oracle,
                             tracer.call)
        finally:
            shutil.rmtree(workspace.root, ignore_errors=True)
    finally:
        tracer.uninstall()

    in_sim = tracer.self_times(first, last)
    by_layer: dict[str, float] = {}
    for name, (_calls, self_s) in in_sim.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    tracer.write(spans_path)
    monitor = tracer.instances.get("Monitor")
    checker = tracer.instances.get("Checker")
    result.update(
        plain_sim_wall_s=plain_wall,
        traced_sim_wall_s=traced_wall,
        plain_log_sha256=hashlib.sha256(plain_log.read_bytes()).hexdigest(),
        spans=len(tracer.name_id),
        span_times={name: list(v)
                    for name, v in tracer.self_times().items()},
        layer_self_s=by_layer,
        counts=tracer.counts,
        actor_counters={
            "monitor_timeouts": getattr(monitor, "timeouts", None),
            "checker_duplicates": getattr(checker, "duplicates", None)},
    )
    plain_log.unlink()
    return result


def main(argv: list[str]) -> int:
    workdir, mode, tag = Path(argv[0]), argv[1], argv[2]
    oracle_path = workdir / "oracle.json"
    oracle = (json.loads(oracle_path.read_text("utf-8"))
              if oracle_path.exists() else None)
    if mode == "plain":
        result = run_plain(workdir, tag, oracle, float(argv[3]))
    elif mode == "trace":
        result = run_traced(workdir, tag, oracle, Path(argv[3]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
