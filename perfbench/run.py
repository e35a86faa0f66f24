#!/usr/bin/env python3
"""catafuse benchmark: time to verdict on three corpus workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package need not be installed.
One client drives one problem at a time (a closed loop). A pass runs every
problem of the workload once, in an order fixed by the seed; the run repeats
whole passes until --seconds have elapsed. With --trace 0 the last stdout
line is a JSON object with the end-to-end metrics; with --trace 1 it has the
per-layer metrics, and the spans are written to .perfbench_work/. Metric
names and units come from BENCHMARK.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from stats import DECIDED, FAILED, Ratio, judge, tail  # noqa: E402

# the CLI's default per-solve limit
CLI_LIMIT = 300.0
# short enough that one give-up pass fits a run; every solve still overruns it
GIVE_UP_LIMIT = 1.0
SETUP_SAMPLES = 5
# solver.solve_file kills the solver child this long after the limit
KILL_GRACE = 10.0
# takes 83-111 s alone, longer than a whole run may last
TOO_SLOW = {"insertion_sort"}

TRANSFORM = "transform"
SOLVE_TRANSFORMED = "solve-transformed"
SOLVE_ORIGINAL = "solve-original"


class Item(NamedTuple):
    name: str
    path: Path
    expected: str
    mode: str
    limit: float


class Record(NamedTuple):
    item: Item
    ops: int              # operations completed: the transform, each solve
    latency: float
    front_s: float
    solves: list          # (kind, verdict, seconds)
    replays: list         # (child verdict, child s, in-process s)
    counts: Counter
    error: str


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


def expected_tag(text: str) -> str:
    """The hand-written `% expect:` tag, read here rather than through the
    program, so that no change to the program can loosen the gate."""
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%") and "expect:" in line:
            return line.split("expect:", 1)[1].strip()
    return ""


def workload_items(workload: str) -> list[Item]:
    items = []
    for path in sorted(CORPUS.glob("*.chc")):
        tag = expected_tag(path.read_text(encoding="utf-8"))
        stem = path.stem
        if workload == "transform":
            items.append(Item(stem, path, tag, TRANSFORM, 0.0))
        elif workload == "decide" and tag and stem not in TOO_SLOW:
            items.append(Item(stem, path, tag, SOLVE_TRANSFORMED, CLI_LIMIT))
        elif workload == "give-up" and tag != "unsat":
            items.append(Item(stem, path, tag, SOLVE_ORIGINAL, GIVE_UP_LIMIT))
            if not tag:
                items.append(Item(stem + "/transformed", path, tag,
                                  SOLVE_TRANSFORMED, GIVE_UP_LIMIT))
    if not items:
        raise BenchError(f"no problems for workload {workload!r} in {CORPUS}")
    return items


def load_program() -> SimpleNamespace:
    if not (SRC / "catafuse" / "__init__.py").is_file():
        raise BenchError(f"no catafuse package under {SRC}")
    if not CORPUS.is_dir():
        raise BenchError(f"no corpus directory at {CORPUS}")
    # the oracle and solver children import the package from the same tree
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    sys.path.insert(0, str(SRC))
    from catafuse import engine, parser, smtlib, solver, transform
    from catafuse.refsolver import horn, qfcore
    return SimpleNamespace(engine=engine, parser=parser, smtlib=smtlib,
                           solver=solver, transform=transform, horn=horn,
                           qfcore=qfcore)


TRIVIAL_QUERY = ("(set-logic ALL)\n(declare-const x Int)\n"
                 "(assert (> x 0))\n(check-sat)\n(exit)\n")
TRIVIAL_HORN = """(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (p x))))
(assert (forall ((x Int)) (=> (and (p x) (= x 0)) false)))
(check-sat)
"""


def preflight(m) -> None:
    """Start the oracle and the CHC solver once on a trivial input."""
    checks = [("oracle", m.engine.default_oracle_cmd(), TRIVIAL_QUERY, "sat")]
    script = WORK / "preflight.smt2"
    script.write_text(TRIVIAL_HORN, encoding="utf-8")
    checks.append(("CHC solver", m.solver.default_solver_cmd() + [str(script)],
                   None, "unsat"))
    for what, cmd, stdin, want in checks:
        try:
            proc = subprocess.run(cmd, input=stdin, capture_output=True,
                                  text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"{what} {cmd} did not run: {e}") from e
        got = proc.stdout.split()[:1]
        if proc.returncode != 0 or got != [want]:
            raise BenchError(
                f"{what} {cmd} answered {proc.stdout.strip()!r} (exit "
                f"{proc.returncode}), expected {want!r}; its stderr:\n"
                f"{proc.stderr}")


SETUP_CODE = """
import sys
from catafuse.engine import ConstraintEngine
from catafuse.parser import parse_problem
problem = parse_problem(open(sys.argv[1], encoding="utf-8").read())
engine = ConstraintEngine()
engine.set_sorts(problem.sorts)
verdict = engine.is_satisfiable(problem.queries[0].constraint)
oracle = engine.oracle.proc
print(verdict if oracle is not None else "no-oracle-query", flush=True)
engine.close()
if oracle is not None:
    oracle.wait()
"""


def setup_seconds() -> float:
    """Fresh interpreter to the first answered engine query: the import, the
    oracle start and the datatype declarations."""
    problem = CORPUS / "insertion_sort.chc"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(problem)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    if proc.returncode != 0 or line not in ("sat", "unsat", "unknown"):
        raise BenchError(f"set-up probe answered {line!r} (exit "
                         f"{proc.returncode}); its stderr:\n{err}")
    return elapsed


def transform_once(m, problem, tracer):
    """Transform with a fresh engine and oracle child, as the CLI does."""
    engine = m.engine.ConstraintEngine(
        m.engine.Oracle(m.engine.default_oracle_cmd()))
    if tracer is not None:
        tracer.count_cache(engine)
    try:
        result = m.transform.transform_problem(problem, engine)
    finally:
        oracle = engine.oracle.proc
        engine.close()
        if oracle is not None:
            oracle.wait(timeout=30)
    return result


class ReplayKilled(Exception):
    pass


def _kill_replay(signum, frame):
    raise ReplayKilled


def replay(m, script: str, limit: float, tracer: spans.Tracer) -> float:
    """Solve a script in-process, so the tracer sees the solver's layers.
    Stopped where the driver kills the child: at the limit plus its grace."""
    previous = signal.signal(signal.SIGALRM, _kill_replay)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit + KILL_GRACE)
            m.horn.solve_script(script, limit)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ReplayKilled:
        tracer.close_open_spans()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start


def run_item(m, item: Item, outputs, tracer=None, solve=True) -> Record:
    """One problem, from reading its text to its last verdict."""
    counts: Counter = Counter()
    solves, replays = [], []
    log = None
    front_s = 0.0
    start = time.perf_counter()
    try:
        problem = m.parser.parse_problem(item.path.read_text(encoding="utf-8"))
        scripts = []
        if item.mode == SOLVE_ORIGINAL:
            scripts.append(("original", m.smtlib.emit_smtlib(problem)))
        else:
            result = transform_once(m, problem, tracer)
            tp = m.transform.transformed_problem(problem, result)
            scripts.append(("transformed", m.smtlib.emit_smtlib(tp)))
            log = result.log
            counts.update({"transform.iterations": result.iterations,
                          "transform.definitions": len(result.definitions),
                          "transform.clauses_out": len(result.clauses),
                          "transform.log.records": len(log.records)})
            counts.update(f"transform.log.{r.rule}" for r in log.records)
        front_s = time.perf_counter() - start
        for kind, script in scripts if solve and item.mode != TRANSFORM else ():
            path = WORK / f"{item.path.stem}.{kind}.smt2"
            path.write_text(script, encoding="utf-8")
            r = m.solver.solve_file(path, m.solver.SolverConfig(timeout=item.limit))
            solves.append((kind, r.verdict, r.seconds))
            if tracer is not None:
                replays.append((r.verdict, r.seconds,
                                replay(m, script, item.limit, tracer)))
        latency = time.perf_counter() - start
        counts["smtlib.bytes"] += sum(len(s.encode()) for _, s in scripts)
        for kind, script in scripts:
            outputs[(item.path.stem, kind + ".smt2")].add(script)
        if log is not None:
            outputs[(item.path.stem, "derivation.log")].add(log.to_text())
        return Record(item, int(log is not None) + len(solves), latency,
                      front_s, solves, replays, counts, "")
    except Exception as e:  # noqa: BLE001 -- a failed operation is a result
        return Record(item, int(log is not None) + len(solves),
                      time.perf_counter() - start, front_s, solves, replays,
                      counts, f"{type(e).__name__}: {e}")


def run_passes(items, rng, seconds, run_one):
    records: list[Record] = []
    passes = 0
    start = time.perf_counter()
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            records.append(run_one(item))
        passes += 1
        if time.perf_counter() - start >= seconds:
            return records, passes, time.perf_counter() - start


def check_outputs(m, outputs: dict[tuple[str, str], set[str]]
                  ) -> tuple[int, dict, int, list[str]]:
    """Re-parse every distinct emitted script; compare digests with the
    recorded ones. `outputs` holds every distinct text emitted per (problem,
    file kind). Returns (files changed, observed digests, scripts re-parsed,
    re-parse failures)."""
    reference = json.loads(DIGESTS.read_text(encoding="utf-8")) \
        if DIGESTS.is_file() else {}
    observed: dict[str, str] = {}
    changed = checked = 0
    bad: list[str] = []
    for (stem, kind), texts in sorted(outputs.items()):
        key = f"{stem}.{kind}"
        digests = {hashlib.sha256(t.encode()).hexdigest() for t in texts}
        observed[key] = sorted(digests)[0] if len(digests) == 1 else "varies"
        if digests != {reference.get(key)}:
            changed += 1
        if kind.endswith(".smt2"):
            for t in texts:
                checked += 1
                try:
                    m.horn.read_script(t)
                except Exception as e:  # noqa: BLE001
                    bad.append(f"{key}: {type(e).__name__}: {e}")
    return changed, observed, checked, bad


def tally(records: list[Record], reparsed: int,
          reparse_failures: list[str]) -> dict:
    """Operations attempted and failed: each transform, each solve and each
    re-parse of a distinct emitted script."""
    attempted = failed = solves = decided = 0
    errors = []
    for r in records:
        attempted += r.ops + bool(r.error)
        if r.error:
            failed += 1
            errors.append(f"{r.item.name}: {r.error}")
        for kind, verdict, _ in r.solves:
            solves += 1
            outcome = judge(verdict, r.item.expected)
            decided += outcome == DECIDED
            if outcome == FAILED:
                failed += 1
                errors.append(f"{r.item.name} {kind}: {verdict}, "
                              f"tagged {r.item.expected}")
    attempted += reparsed
    failed += len(reparse_failures)
    errors += reparse_failures
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "solves": solves, "decided": decided}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(m, workload, items, rng, seconds, outputs):
    # set-up samples are spread over the first pass, so that they see the
    # same host as the problems do; their time is not part of the wall time
    every = max(1, len(items) // SETUP_SAMPLES)
    setups: list[float] = []
    started = itertools.count()

    def one(item: Item) -> Record:
        if next(started) % every == 0 and len(setups) < SETUP_SAMPLES:
            setups.append(setup_seconds())
        return run_item(m, item, outputs)

    records, passes, wall = run_passes(items, rng, seconds, one)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_seconds())
    wall -= sum(setups)
    latencies = [r.latency for r in records]
    overruns = [s - r.item.limit for r in records for _, _, s in r.solves]
    info = {
        "passes": passes, "wall_s": wall,
        "problems": len(records),
        "latency_tail": tail(latencies),
        "overrun_max_s": max(overruns) if workload == "give-up" else None,
        "output_bytes": sum(r.counts["smtlib.bytes"] for r in records) // passes
        if workload == "transform" else None,
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "problems_per_s": len(records) / wall,
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    return records, metrics, info


def per_layer(m, workload, items, rng, seconds, outputs):
    tracer = spans.Tracer()
    front: list[Record] = []

    def traced(item: Item) -> Record:
        # the same front end untraced, just before, gives the tracing overhead
        front.append(run_item(m, item, outputs, solve=False))
        tracer.problem = item.name
        spans.install(tracer, m)
        try:
            return run_item(m, item, outputs, tracer)
        finally:
            tracer.unwrap()

    records, passes, wall = run_passes(items, rng, seconds, traced)
    tracer.write(WORK / f"spans-{workload}.jsonl")
    totals: dict[str, float] = defaultdict(float, spans.layer_totals(tracer.spans))
    for r in records:
        for k, v in r.counts.items():
            totals[k] += v
    totals.update(tracer.counts)
    totals["solver.kills"] = sum(v == "timeout" for r in records
                                 for _, v, _ in r.solves)
    # child wall minus in-process wall of the same script, where the child
    # was not killed (a killed child's time is the driver's, not the spawn's)
    totals["solver.spawn_s"] = sum(child - inproc for r in records
                                   for v, child, inproc in r.replays
                                   if v != "timeout")
    totals["trace.frontend_s"] = sum(r.front_s for r in records)
    totals["trace.spans"] = len(tracer.spans)
    metrics = {k: v / passes for k, v in totals.items()}
    metrics["engine.cache_hit_ratio"] = Ratio(
        totals["engine.cache_hits"], totals["engine.cache_lookups"]).value or 0.0
    overruns = [inproc - r.item.limit for r in records
                for _, _, inproc in r.replays]
    metrics["refsolver.horn.overrun_s"] = max([0.0] + overruns)
    metrics["trace.overhead_s"] = (totals["trace.frontend_s"]
                                   - sum(r.front_s for r in front)) / passes
    info = {"passes": passes, "wall_s": wall, "problems": len(records),
            "cache": Ratio(totals["engine.cache_hits"],
                           totals["engine.cache_lookups"])}
    return front + records, metrics, info


def report(workload, seed, trace, metrics, info, tally_, changed, declared):
    solves = tally_["solves"]
    lines = [f"workload {workload}  seed {seed}  trace {trace}  passes "
             f"{info['passes']}  problems {info['problems']}  wall "
             f"{info['wall_s']:.2f} s"]
    for name, unit in declared:
        lines.append(f"{name} {metrics[name]:.6g} {unit}")
    if not trace:
        t = info["latency_tail"]
        lines.append("latency_tail_s " + (
            f"{t.value:.6g} s (p{t.percentile:.1f}, n={t.n}, {t.beyond} beyond)"
            if t else f"n/a (n={info['problems']}, needs 20)"))
        lines.append("decided_ratio " + (
            str(Ratio(tally_["decided"], solves)) if solves else "n/a (no solves)"))
        if info["overrun_max_s"] is not None:
            lines.append(f"overrun_max_s {info['overrun_max_s']:.6g} s "
                         f"(limit {GIVE_UP_LIMIT:g} s)")
        if info["output_bytes"] is not None:
            lines.append(f"output_bytes {info['output_bytes']} bytes")
    else:
        lines.append(f"engine.cache_hit_ratio base: {info['cache']}")
    lines.append(f"failed_ratio {Ratio(tally_['failed'], tally_['attempted'])} "
                 "operations")
    lines.append(f"outputs_changed {changed}")
    for e in tally_["errors"]:
        lines.append(f"FAILED {e}")
    print("\n".join(lines), flush=True)


def declared_metrics(workload: str, trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
        declared = [(d["name"], d["unit"])
                    for d in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from e
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; one of {names}")
    return declared


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        declared = declared_metrics(args.workload, args.trace)
        m = load_program()
        preflight(m)
        items = workload_items(args.workload)
        run = per_layer if args.trace else end_to_end
        outputs: dict[tuple[str, str], set[str]] = defaultdict(set)
        records, metrics, info = run(m, args.workload, items,
                                     random.Random(args.seed), args.seconds,
                                     outputs)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.trace:  # a layer the workload never reached did no work
        metrics = {n: 0.0 for n, _ in declared} | metrics
    missing = [n for n, _ in declared if n not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    changed, observed, reparsed, bad = check_outputs(m, outputs)
    (WORK / f"digests-{args.workload}.json").write_text(
        json.dumps(observed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    t = tally(records, reparsed, bad)
    report(args.workload, args.seed, args.trace, metrics, info, t, changed,
           declared)
    ok = t["failed"] == 0
    print(json.dumps({
        "correct": ok, "attempted": t["attempted"], "failed": t["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
