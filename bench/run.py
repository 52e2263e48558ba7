"""Benchmark of the comparability CLI: closed-loop queries, checked answers.

    python3 bench/run.py --workload prime --seed 1 --seconds 36 --trace 0

Run from the repository root (any checkout holding ``src/``). One caller
sends one query at a time, with no threads, through the in-process CLI
entry ``comparability.cli.main(argv)``; each query's input files are
generated from the seed beforehand and every answer is checked against
ground truth the generator knows by construction.

``--trace 0`` runs whole rounds of the workload, at least three and at
least a hundred queries, ending at the round boundary nearest to
``--seconds`` of measured query time, and reports the end-to-end
metrics:

* setup_s: median wall time of fresh interpreters that import the CLI and
  answer one trivial query, the cold start every CLI call pays;
* queries_per_s: correctly answered queries per second of query time;
* latency_p50_s / latency_p90_s: per-query wall time; a refused, failed
  or timed-out query counts at the deadline;
* answered_share: correct answers over queries attempted (refusals and
  failures are what it misses);
* peak_rss_mb: peak resident memory of this process, which runs them,
  once the first three rounds are done: the same queries for every
  version of the program, however many rounds fit in the run.

``--trace 1`` runs a fixed number of rounds twice, each pass in a fresh
process so the program's caches start cold: untraced here, then traced in
a child that records a span around every layer call (see ``spans.py``).
It reports per-layer busy and self time, call and refusal counts, tree
shape counts, the queries' own time outside layer spans and the tracing
overhead. A fixed query set keeps those totals comparable across
versions of the program.

The last line of stdout is the JSON result; earlier lines repeat every
metric with its unit, the machine context and any failed query.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Well above the slowest seed query (about 3 s), so no query flips
# between runs; a query past it is stopped and counted as failed.
DEADLINE_S = 20.0
TRACE_ROUNDS = 2
SETUP_LAUNCHES = 11
# At least this many whole rounds and this many queries, so every run has
# ten or more latency samples beyond p90; peak_rss_mb is read after
# MIN_ROUNDS rounds.
MIN_ROUNDS = 3
MIN_QUERIES = 100
# No query starts after this many multiples of --seconds of wall time, so
# a run ends even if many queries reach the deadline, or queries get cheap
# and inputs expensive to draw; a traced pass stops after TRACE_WALL_S.
WALL_FACTOR = 3
TRACE_WALL_S = 45.0

# The program iterates sets of strings (subtree codes among them), whose
# order follows the interpreter's random per-process string hash; on one
# tree-mix graph that alone moved aut's time by nearly half from one
# process to the next. The benchmark runs under this fixed hash seed, so
# a run's cost follows its inputs rather than that draw.
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s", "queries_per_s": "1/s", "latency_p50_s": "s",
    "latency_p90_s": "s", "answered_share": "ratio", "peak_rss_mb": "MB",
}


class DeadlineExceeded(BaseException):
    """Raised by the alarm inside the query; BaseException so that no
    handler in the program can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Record:
    status: str          # answered | refused | failed
    seconds: float
    detail: str = ""


def execute(query, deadline: float = DEADLINE_S, tracer=None) -> Record:
    """Run one query through the CLI entry, stop it at the deadline, and
    classify the answer."""
    from comparability.cli import main
    out, err = io.StringIO(), io.StringIO()
    root = tracer.query(query.qid) if tracer else contextlib.nullcontext()
    code, crash = None, ""
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with root, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(query.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        crash = f"stopped at the {deadline:g} s deadline"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a result to report, not to raise
        crash = f"crash: {type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    record = Record("failed", seconds)
    if crash:
        record.detail = crash
    elif code == 3:
        record.status = "refused"
    else:
        try:
            problem = query.check(code, out.getvalue())
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            problem = f"unreadable answer: {type(exc).__name__}: {exc}"
        if problem is None:
            record.status = "answered"
        else:
            record.detail = f"{problem}; stderr: {err.getvalue()[:200]!r}"
    return record


def measure_setup(work: Path) -> float:
    """Median cold start of the CLI on a trivial query. The first launch
    is not counted: it may compile bytecode, which users pay once."""
    probe = work / "setup_p4.txt"
    probe.write_text("4 3\n0 1\n1 2\n2 3\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "comparability.cli", "decompose", str(probe)]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout != "node 0 prime: 0 1 2 3\n":
            raise RuntimeError(f"setup probe failed: {proc.stderr[-300:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    from workloads import QueryStream
    setup = measure_setup(work)
    import comparability.cli  # noqa: F401  (import cost is setup_s's)
    stream = QueryStream(workload, seed, work)
    records: list[Record] = []
    measured = 0.0
    wall_start = time.perf_counter()
    cap = wall_start + WALL_FACTOR * seconds
    while time.perf_counter() < cap:
        rounds = stream.rounds
        if rounds >= MIN_ROUNDS and len(records) >= MIN_QUERIES and \
                measured + measured / rounds / 2 >= seconds:
            break  # the round boundary nearest to --seconds
        for record in execute_all(stream.next_round(), cap):
            records.append(record)
            measured += record.seconds
        shutil.rmtree(work / f"round{stream.rounds - 1}", ignore_errors=True)
        if stream.rounds <= MIN_ROUNDS:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    answered = sum(r.status == "answered" for r in records)
    latencies = [r.seconds if r.status == "answered" else DEADLINE_S
                 for r in records]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": setup,
        "queries_per_s": answered / measured,
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": cuts[8],
        "answered_share": answered / len(records),
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"rounds: {stream.rounds}  queries: {len(records)}  "
          f"refused: {sum(r.status == 'refused' for r in records)}  "
          f"measured: {measured:.2f} s")
    return result(records, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def execute_all(queries, cap: float, tracer=None) -> list[Record]:
    """Run queries in order until the wall clock passes `cap`."""
    records = []
    for query in queries:
        if time.perf_counter() >= cap:
            break
        record = execute(query, tracer=tracer)
        records.append(record)
        if record.status == "failed":
            kept = keep_inputs(query)
            print(f"FAILED {query.command} n={query.n} inputs "
                  f"{' '.join(kept)}: {record.detail}")
    return records


def keep_inputs(query) -> list[str]:
    """Copy a query's input files where they outlive the run."""
    keep = ROOT / ".bench_failures"
    keep.mkdir(exist_ok=True)
    kept = []
    for arg in query.argv:
        path = Path(arg)
        if path.suffix == ".txt" and path.is_file():
            name = "_".join(path.relative_to(ROOT / ".bench_work").parts)
            shutil.copy(path, keep / name)
            kept.append(str(Path(".bench_failures") / name))
    return kept


def fixed_queries(workload: str, seed: int, work: Path) -> list:
    """The first TRACE_ROUNDS rounds, the query set of both trace passes."""
    import comparability.cli  # noqa: F401  (imported before any query)
    from workloads import QueryStream
    stream = QueryStream(workload, seed, work)
    return [q for _ in range(TRACE_ROUNDS) for q in stream.next_round()]


def traced_child(workload: str, seed: int, out: Path, work: Path) -> None:
    """The traced pass: same queries as the parent, spans kept in memory
    and written once at the end."""
    from spans import Tracer
    queries = fixed_queries(workload, seed, work)
    with Tracer() as tracer:
        records = execute_all(queries, time.perf_counter() + TRACE_WALL_S,
                              tracer)
    out.write_text(json.dumps({
        "spans": tracer.spans, "counts": tracer.counts,
        "records": [r.__dict__ for r in records]}))


def trace_run(workload: str, seed: int, work: Path) -> dict:
    from spans import derive
    queries = fixed_queries(workload, seed, work / "untraced")
    untraced = execute_all(queries, time.perf_counter() + TRACE_WALL_S)
    out = work / "spans.json"
    subprocess.run([sys.executable, str(Path(__file__)), "--workload",
                    workload, "--seed", str(seed), "--trace", "1",
                    "--traced-child", str(out)],
                   check=True, timeout=150, cwd=ROOT)
    data = json.loads(out.read_text())
    traced = [Record(**r) for r in data["records"]]
    metrics = derive(data["spans"], data["counts"])
    metrics["trace.overhead_s"] = sum(r.seconds for r in traced) - \
        sum(r.seconds for r in untraced)
    records = untraced + traced
    return result(records, {k: (v, per_layer_unit(k))
                            for k, v in metrics.items()})


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def result(records: list[Record], metrics: dict) -> dict:
    failed = sum(r.status == "failed" for r in records)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def context() -> dict:
    """Recorded beside each result, never gated on."""
    lines = sum(len(p.read_text().splitlines())
                for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "src_lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("prime", "tree-mix", "gadget"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", metavar="OUT",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "comparability" / "cli.py").is_file():
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 1
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path[:0] = [str(BENCH), str(SRC)]
    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.traced_child:
            traced_child(args.workload, args.seed, Path(args.traced_child),
                         work)
            return 0
        print("context:", json.dumps(context()))
        if args.trace:
            outcome = trace_run(args.workload, args.seed, work)
        else:
            outcome = timed_run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
