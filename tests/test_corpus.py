"""A pinned corpus of random noop runs under every fault the scenario
language has.

Case i draws one noop DAG (1-8 tasks, float durations, some required
capabilities, max_attempts 1-4, some results that fail their first
validation) and one scenario (1-4 workers with crashes, stalls,
departures, late arrivals, crash_prob, volunteer latency and jitter, and
horizons that cut jobs) from random.Random(i).  Every run must pass both
audits, the fold its log made as it was written must equal the fold of
the parsed log and of that log rendered in the older format (format_1),
its Monitor's and Checker's counters must match that fold, its task
and in-flight rows, idle and to-do tables and spec answers must equal a
scan of the records after each tick, every TasksToDo task record must carry (or be filled
in with) its task's first TasksToDo spec, no actor may
drain an envelope it sent or one on WaitingTasks, the Monitor may drain
nothing, the Checker nothing but results, and a worker no Emergency
and no assignment naming another worker, the Broker's step may never
run, an Emergency must be the last record of its log, the reference
loop (step_every_tick) must write the same log and report, a completed
run must release each dependent and publish its Emergency in the tick of
the verdict that allows it, no attempt may stay in flight past the tick
after its due result while a worker idles and no task waits, and the
sha256 of its log, cut to 16 hex digits, must equal the one pinned for
its case in corpus_digests.txt.
A change that moves log bytes therefore names the cases it moved.
After a deliberate move, re-pin and let the diff show which cases moved:

    PYTHONPATH=src python tests/test_corpus.py --write
"""

import copy
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pubflow import (
    KernelSpec,
    LogTally,
    MalformedLog,
    Report,
    Scenario,
    Task,
    WorkerSpec,
    WorkflowBatch,
    lifecycle_audit,
    parse_log,
    precedence_audit,
    run_simulation,
)
from pubflow import actors
from pubflow.bus import InProcessBus
from test_simulator import (fold_drift, keep, lags, overruns, reference_run,
                            respecified, tick_ends)

CASES = 600
PINNED = Path(__file__).with_name("corpus_digests.txt")
CAPS = ("gpu", "ssd")
# a "flaky" task's first attempt fails validation; a retry passes
VALIDATORS = {"flaky": lambda spec, result, workspace: result["attempt"] > 1}


def _maybe(rng, p, draw):
    """draw() with probability p, else None."""
    return draw() if rng.random() < p else None


def draw_batch(rng):
    """Noop tasks t0, t1, ..., each depending on some earlier ones and
    reading their outputs.  In about one case in six every task needs a
    capability, so that a worker without any can run none of them."""
    all_capped = rng.random() < 0.15
    tasks = []
    for i in range(rng.randint(1, 8)):
        deps = sorted(t.id for t in tasks if rng.random() < 0.3)
        caps = frozenset([rng.choice(CAPS)]) \
            if all_capped or rng.random() < 0.25 else frozenset()
        out = f"d_t{i}"
        tasks.append(Task(
            id=f"t{i}",
            kernel=KernelSpec(name="noop", params={"values": {out: [i]}},
                              inputs=tuple(f"d_{d}" for d in deps),
                              outputs=(out,),
                              declared_duration=rng.uniform(0.3, 12.0)),
            deps=frozenset(deps), required_caps=caps,
            max_attempts=rng.randint(1, 4),
            validator="flaky" if rng.random() < 0.1 else None))
    return WorkflowBatch(batch_id="corpus",
                         tasks={t.id: t for t in tasks}), all_capped


def draw_scenario(rng, seed, all_capped):
    workers = []
    count = rng.randint(1, 4)
    for w in range(count):
        # the last worker of an all-capped DAG can run no task
        caps = frozenset() if all_capped and w == count - 1 \
            else frozenset(c for c in CAPS if rng.random() < 0.6)
        workers.append(WorkerSpec(
            worker_id=f"w{w}", capabilities=caps,
            speed=rng.choice((0.5, 1.0, 1.0, 2.0, rng.uniform(0.2, 3.0))),
            reliability=rng.random(),
            arrival=_maybe(rng, 0.25, lambda: rng.randint(1, 40)) or 0,
            departure=_maybe(rng, 0.15, lambda: rng.randint(0, 90)),
            crash=_maybe(rng, 0.2, lambda: rng.randint(0, 90)),
            crash_prob=_maybe(rng, 0.15, lambda: rng.uniform(0.0, 0.05))
            or 0.0,
            stall=_maybe(rng, 0.25, lambda: (rng.randint(0, 60),
                                             rng.randint(1, 40)))))
    return Scenario(
        seed=seed,
        horizon=rng.choice((rng.randint(3, 60), 400, 400)),
        heartbeat_period=rng.randint(1, 6),
        timeout_multiplier=rng.randint(1, 4),
        volunteer_latency=_maybe(rng, 0.3, lambda: rng.randint(1, 5)) or 0,
        volunteer_jitter=_maybe(rng, 0.3, lambda: rng.randint(1, 4)) or 0,
        workers=tuple(workers))


def draw_case(case):
    rng = random.Random(case)
    batch, all_capped = draw_batch(rng)
    return batch, draw_scenario(rng, case, all_capped)


def run_case(case):
    """(digest, parsed records, batch, scenario, report, the log's own
    fold) of one case."""
    batch, scenario = draw_case(case)
    report, log = run_simulation(batch, scenario, validators=VALIDATORS)
    text = log.dumps()
    return digest_of(text), parse_log(text), batch, scenario, report, \
        log.tally


def digest_of(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def is_stray(actor_id, env):
    """An envelope its reader has no use for: one it sent, one on
    WaitingTasks, anything for the Monitor (the fold gives it all it
    reads), anything but a result for the Checker, or, for a worker, an
    Emergency (nothing is sent after it, so nobody listens to it) or an
    assignment for a worker it does not name."""
    if env.sender == actor_id or env.channel == "WaitingTasks" \
            or actor_id == "monitor":
        return True
    if actor_id == "checker":
        return env.kind != "result"
    return env.kind == "emergency" or (
        env.kind == "assignment" and env.payload["worker_id"] != actor_id)


def record_stray_mail(monkeypatch):
    """A list that gets (actor, seq) for each stray envelope an actor
    drains (is_stray), and ("broker", now) for each Broker.step."""
    stray = []
    drain = InProcessBus.drain

    def recording_drain(self, actor_id):
        out = drain(self, actor_id)
        stray.extend((actor_id, env.seq) for env in out
                     if is_stray(actor_id, env))
        return out

    monkeypatch.setattr(InProcessBus, "drain", recording_drain)
    monkeypatch.setattr(actors.Broker, "step",
                        lambda self, now: stray.append((self.id, now)))
    return stray


@pytest.fixture(scope="module")
def corpus():
    """run_case's tuple for each case, the actors its run made and its
    stray mail (record_stray_mail)."""
    runs = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        made = keep(monkeypatch, actors.Monitor, actors.Checker)
        stray = record_stray_mail(monkeypatch)
        for case in range(CASES):
            runs.append((*run_case(case), dict(made), stray[:]))
            stray.clear()
    return runs


def read_pinned():
    lines = PINNED.read_text("utf-8").splitlines()
    return [line.split()[1] for line in lines if line.strip()]


def test_every_case_passes_both_audits(corpus):
    for case, (_, records, batch, *_) in enumerate(corpus):
        assert precedence_audit(records, batch) == [], f"case {case}"
        assert lifecycle_audit(records) == [], f"case {case}"


def test_the_live_fold_equals_the_fold_of_the_written_log(corpus):
    """What EventLog.append folded as the run wrote its log is what a
    fresh LogTally folds from the parsed log: every count, the published
    attempts, the in-flight rows and both audits' state, violations
    included.  So
    the run's report holds the parsed fold's Report, and its horizon is
    set exactly when the log has no Emergency."""
    for case, (_, records, _, scenario, report, live, *_) \
            in enumerate(corpus):
        parsed = LogTally()
        for record in records:
            parsed.add(record)
        assert vars(parsed) == vars(live), f"case {case}"
        doc = vars(Report.of(parsed))
        assert {name: vars(report)[name] for name in doc} == doc, \
            f"case {case}"
        assert report.horizon == (scenario.horizon if parsed.reason is None
                                  else None), f"case {case}"


def test_every_case_matches_its_pinned_digest(corpus):
    digests = [digest for digest, *_ in corpus]
    pinned = read_pinned()
    moved = [case for case, (got, want)
             in enumerate(zip(digests, pinned)) if got != want]
    assert len(pinned) == CASES
    assert not moved, (
        f"{len(moved)} of {CASES} cases moved, first case {moved[0]}: "
        f"{digests[moved[0]]} != {pinned[moved[0]]}")


def test_the_reference_loop_writes_the_same_bytes(corpus):
    """Stepping every actor on every tick (step_every_tick) gives each
    case's log and report, and no step that it adds publishes."""
    for case, (digest, _, batch, scenario, report, *_) in enumerate(corpus):
        ref_report, log, woken = reference_run(batch, scenario, VALIDATORS)
        assert woken == [], f"case {case}"
        assert digest_of(log.dumps()) == digest, f"case {case}"
        assert vars(ref_report) == vars(report), f"case {case}"


def test_a_verdict_acts_in_its_own_tick(corpus):
    """In a finished run each dependent is released, and the Emergency
    published, in the tick of the verdict that allows it."""
    for case, (_, records, _, _, report, *_) in enumerate(corpus):
        if report.completed:
            assert lags(records) == {}, f"case {case}"


def test_no_attempt_overruns_its_due_result_while_a_worker_idles(corpus):
    """While a worker idles and no task waits, the Monitor backs up an
    attempt in flight by the tick after its result was due."""
    for case, (_, records, _, scenario, *_) in enumerate(corpus):
        assert overruns(records, scenario.horizon) == [], f"case {case}"


def test_the_fold_equals_a_scan_after_each_tick(corpus):
    """After each tick's records, the fold's task and in-flight rows,
    spec answers and idle and to-do tables equal a scan of the records
    so far (test_simulator.scanned_tables)."""
    for case, (_, records, *_) in enumerate(corpus):
        assert fold_drift(records, tick_ends(records)) == [], f"case {case}"


def test_a_released_tasks_spec_never_changes(corpus):
    """Every TasksToDo task record's spec, carried or filled in from the
    task's latest, is its task's first on TasksToDo."""
    for case, (_, records, *_) in enumerate(corpus):
        assert respecified(records) == [], f"case {case}"


def format_1(records):
    """The records as logged before each fact was logged once: each task
    record with its spec, restored from its task's latest; each verdict
    with the outputs of the result it verified ({} when failed); and each
    result with an elapsed time, its ticks since its attempt started."""
    latest, started, outputs, out = {}, {}, {}, []
    for record in records:
        kind, payload = record["kind"], dict(record["payload"])
        key = (payload.get("task_id"), payload.get("attempt"))
        if kind == "task":
            if "spec" not in payload:
                payload["spec"] = latest[key[0]]
            latest[key[0]] = payload["spec"]
        elif kind == "started":
            started[key] = record["ts"]
        elif kind == "result":
            outputs[key] = payload["outputs"]
            payload["elapsed"] = float(record["ts"] - started[key])
        elif kind == "verdict":
            payload["outputs"] = outputs[key] if payload["ok"] else {}
        out.append(dict(record, payload=payload))
    return out


def test_a_log_with_every_fact_in_every_record_folds_the_same(corpus):
    """A log in the older format, whose task records all carry their
    spec, whose verdicts carry outputs and whose results carry an elapsed
    time, still reads: its fold equals the fold of the log the run wrote."""
    restored = 0
    for case, (_, records, _, _, _, live, *_) in enumerate(corpus):
        restored += sum("spec" not in r["payload"] for r in records
                        if r["kind"] == "task")
        text = "".join(json.dumps(r, separators=(",", ":")) + "\n"
                       for r in format_1(records))
        old = LogTally()
        for record in parse_log(text):
            old.add(record)
        assert vars(old) == vars(live), f"case {case}"
    assert restored > CASES


# What a mutation writes over a field: wrong types, a task and a worker
# no record names, huge and negative ints, and empty containers.
MUTANTS = (None, True, 1.5, "x", "ghost", "w-ghost", 10 ** 30, -10 ** 30,
           -1, 0, [], ["t0"], {}, {"deps": 1})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_record_reads_or_is_malformed(corpus, data):
    """One field of one corpus record, a key of the record, of its
    payload or one level deeper (a spec, a profile, outputs), is
    written over.  parse_log either refuses the log with MalformedLog or
    reads it, and then the fold, both audits and the report raise
    nothing."""
    case = data.draw(st.integers(0, CASES - 1), label="case")
    _, records, batch, *_ = corpus[case]
    records = copy.deepcopy(records)
    record = data.draw(st.sampled_from(records), label="record")
    owner = data.draw(st.sampled_from([record, record["payload"]]))
    key = data.draw(st.sampled_from(sorted(owner)), label="key")
    if isinstance(owner[key], dict) and owner[key] \
            and data.draw(st.booleans()):
        owner = owner[key]
        key = data.draw(st.sampled_from(sorted(owner)), label="inner key")
    owner[key] = data.draw(st.sampled_from(MUTANTS), label="value")
    text = "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records)
    try:
        parsed = parse_log(text)
    except MalformedLog:
        return
    tally = LogTally()
    for record in parsed:
        tally.add(record)
    lifecycle_audit(tally)
    precedence_audit(tally, batch)
    Report.of(tally)


# Case 595's horizon (37) cuts the tick in which w3 sends a result for the
# verified t0: the fold counts it as a duplicate, the Checker never reads
# it.  Every other case's discarded results are the fold's duplicates.
HORIZON_CUT_DUPLICATE = 595


def test_every_delivery_is_mail_its_reader_acts_on(corpus):
    for case, (*_, stray) in enumerate(corpus):
        assert stray == [], f"case {case}"


def test_the_run_ends_in_the_tick_of_its_emergency(corpus):
    """Nothing is logged after the Emergency: the coordinator reads no
    further mail, the monitor and the checker publish nothing, and no
    worker acts in its tick."""
    for case, (_, records, *_) in enumerate(corpus):
        ends = [i for i, r in enumerate(records) if r["kind"] == "emergency"]
        assert ends in ([], [len(records) - 1]), f"case {case}"


def test_the_actor_counters_match_the_fold(corpus):
    for case, (*_, report, _, made, _) in enumerate(corpus):
        assert made[actors.Monitor].timeouts == report.timeouts, \
            f"case {case}"
        discarded = made[actors.Checker].duplicates
        if case == HORIZON_CUT_DUPLICATE:
            assert (discarded, report.duplicates) == (0, 1)
        else:
            assert discarded == report.duplicates, f"case {case}"


def test_the_corpus_exercises_every_fault(corpus):
    """Each knob is drawn in some case, some horizon cuts a running job,
    and a worker that can run no task never offers itself."""
    seen = dict.fromkeys(("crash", "stall", "departure", "late arrival",
                          "crash_prob", "latency", "jitter", "cut job",
                          "no task", "failed", "retried"), 0)
    for _, records, batch, scenario, report, *_ in corpus:
        workers = scenario.workers
        seen["crash"] += any(w.crash is not None for w in workers)
        seen["stall"] += any(w.stall is not None for w in workers)
        seen["departure"] += any(w.departure is not None for w in workers)
        seen["late arrival"] += any(w.arrival > 0 for w in workers)
        seen["crash_prob"] += any(w.crash_prob > 0 for w in workers)
        seen["latency"] += scenario.volunteer_latency > 0
        seen["jitter"] += scenario.volunteer_jitter > 0
        kinds = {}
        for record in records:
            kinds.setdefault(record["kind"], []).append(record)
        ended = {(r["payload"]["task_id"], r["payload"]["attempt"])
                 for r in kinds.get("result", ())}
        lasting = {w.worker_id for w in workers if w.crash is None
                   and w.departure is None and w.crash_prob == 0}
        seen["cut job"] += not kinds.get("emergency") and any(
            (p["task_id"], p["attempt"]) not in ended
            and p["worker_id"] in lasting
            for p in (r["payload"] for r in kinds.get("started", ())))
        seen["failed"] += any(not r["payload"]["ok"]
                              for r in kinds.get("verdict", ()))
        seen["retried"] += report.re_executions > 0
        offered = {r["payload"]["worker_id"]
                   for r in kinds.get("volunteer", ())}
        for ws in workers:
            if not any(t.required_caps <= ws.capabilities
                       for t in batch.tasks.values()):
                seen["no task"] += 1
                assert ws.worker_id not in offered
    assert all(seen.values()), seen


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_corpus.py --write")
    PINNED.write_text("".join(f"{case} {run_case(case)[0]}\n"
                              for case in range(CASES)), "utf-8")
    print(f"pinned {CASES} digests in {PINNED}")
