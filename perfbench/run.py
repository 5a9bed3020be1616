"""End-to-end benchmark of ``hyqsat batch`` and the gateway.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-hard --seed 1 --seconds 30 --trace 0

Workloads, metrics and the reasons behind them are in README.md.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  Every answer is checked: SAT models against the
formula sent, UNSAT against a classic-CDCL reference status computed
before timing starts.  Exits 1 after printing when an answer or a
mechanism check fails, and 2 without printing when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable

#: Fresh program starts per run, half before the timed phase and half
#: after it; ``setup_s`` is their median, so the bytecode compilation of
#: a first start in a fresh checkout and slow spells of the host do not
#: count.
SETUP_STARTS = 6
#: Nominal cost on a 2-vCPU host, used to size a run's job list from
#: ``--seconds`` so the timed phase lasts about that long while the
#: list (and every exact count) stays a pure function of the seed.
BATCH_JOB_S = 4.5      # one batch-hard job
GATEWAY_JOBS_PER_S = 30.0

FLEET = "chimera:8,pegasus:8,chimera:16"
FLEET_DEVICES = ("chimera8", "pegasus8", "chimera16")
#: Gateway jobs in flight (closed loop).  One: with two, the server's
#: executor threads took turns on one interpreter, so each latency held
#: part of its neighbour's and moved with how the host scheduled them.
OUTSTANDING = 1
#: Admission limits far above what a 1-deep closed loop can reach, so
#: no submission is rate-limited or bounced; a reject counts as failed.
NO_LIMITS = ["--rate-per-s", "1000000", "--burst", "1000000",
             "--max-depth", "100000"]
WAIT_S = 170.0

#: Per-layer metrics a traced run must measure above zero: those of the
#: layers its workload is meant to show (README.md, "Traced run").  The
#: other layers report 0 where the workload never enters them.
REQUIRED_LAYER_METRICS = {
    "batch-hard": (
        "sat.parse_s", "sat.parse_calls",
        "service.queue_wait_s", "service.dispatch_s", "service.journal_s",
        "service.journal_fsyncs", "service.worker_processes",
        "service.run_job_s", "service.result_encode_s",
        "core.solve_s", "core.select_s", "core.prepare_s", "core.prepare_calls",
        "core.classify_s", "core.qa_calls",
        "qubo.encode_s", "qubo.adjust_s", "qubo.rescale_evals", "qubo.normalize_s",
        "embedding.embed_s", "embedding.embedded_ratio",
        "annealer.compile_s", "annealer.run_s", "annealer.qpu_us_modelled",
        "resilience.overhead_s",
        "cdcl.self_s", "cdcl.conflicts", "cdcl.propagations", "cdcl.props_per_s",
    ),
    "gateway-zipf": (
        "sat.parse_s", "sat.parse_calls", "sat.fingerprint_s",
        "sat.fingerprint_calls",
        "gateway.decode_s", "gateway.encode_s", "gateway.route_s",
        "gateway.queue_wait_s",
        "cache.lookup_s", "cache.hit_ratio", "cache.hits.exact",
        "cache.record_s", "cache.warm_s", "cache.solves",
    ),
}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Run:
    """One benchmark run: its seed, size, working directory, results."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(
            ROOT, ".perfbench_runs", f"{workload}-{seed}-{os.getpid()}"
        )
        os.makedirs(os.path.join(self.dir, "tmp"))
        # Compilers and tempfile users write here, inside the checkout.
        os.environ["TMPDIR"] = os.path.join(self.dir, "tmp")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        #: The program's stderr, shown when a run fails.
        self.log = open(self.path("program.log"), "ab")

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def expect(self, ok: bool, message: str) -> None:
        """A mechanism check: the workload measured what it claims."""
        if not ok:
            self.problems.append(message)

    def popen(self, argv: List[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("stdout", subprocess.DEVNULL)
        kwargs.setdefault("stderr", self.log)
        return subprocess.Popen(argv, cwd=ROOT, env=self.env, **kwargs)

    def program(self, mode: str, config: dict, trace_dir: Optional[str]) -> dict:
        """Run ``program.py`` to completion and return its result."""
        config = dict(config, out=self.path(f"{mode}-result.json"))
        if trace_dir:
            config["trace_dir"] = trace_dir
        config_path = self.write(f"{mode}-config.json", json.dumps(config))
        proc = self.popen([PYTHON, os.path.join(HERE, "program.py"), mode, config_path])
        wait(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"program {mode} exited {proc.returncode}")
        with open(config["out"], encoding="utf-8") as handle:
            return json.load(handle)


def wait(proc: subprocess.Popen, timeout: float = WAIT_S) -> None:
    """Wait for ``proc``; stop it if the wait times out or is interrupted."""
    try:
        proc.wait(timeout=timeout)
    except BaseException:
        stop(proc)
        raise


def stop(proc: subprocess.Popen) -> None:
    """SIGINT (the gateway drains and returns), then kill if needed."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def median(values) -> float:
    return float(statistics.median(values))


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def answer_ok(instance, status: Optional[str], model) -> bool:
    """SAT: ``model`` is a consistent assignment of the formula's
    variables that satisfies every clause the client sent.  UNSAT: the
    classic-CDCL reference agrees."""
    if status == "sat":
        if not model:
            return False
        true = set(model)
        if any(-lit in true or not 0 < abs(lit) <= instance.num_vars for lit in true):
            return False
        return all(any(lit in true for lit in clause) for clause in instance.clauses)
    if status == "unsat":
        return instance.reference == "unsat"
    return False


def count_answers(run: Run, answers) -> List[bool]:
    """Tally ``(instance, state, status, model)`` tuples; returns, per
    tuple, whether it was answered correctly."""
    oks = []
    for instance, state, status, model in answers:
        run.attempted += 1
        ok = state == "done" and answer_ok(instance, status, model)
        if not ok:
            run.failed += 1
            if state == "done":
                run.problems.append(f"wrong answer {status!r} for {instance.name}")
        oks.append(ok)
    return oks


def answered(values, oks) -> list:
    """The ``values`` of the correctly answered jobs."""
    return [value for value, ok in zip(values, oks) if ok]


@dataclass
class Phase:
    """What one timed phase measured."""

    job_ids: List[str]
    jobs_per_s: float
    latencies: List[float]
    peak_rss_mb: float
    #: job id -> exact search counts the program reported (batch).
    counts: Dict[str, dict] = field(default_factory=dict)
    #: job id -> client receive times of the gateway's stream messages.
    events: Dict[str, dict] = field(default_factory=dict)


def measure(run: Run, start, phase) -> None:
    """``--trace 0``: the timed phase, with fresh starts for ``setup_s``
    before and after it.  ``--trace 1``: the phase untraced, then
    traced, and the per-layer metrics from the traced one's spans."""
    if not run.trace:
        half = SETUP_STARTS // 2
        starts = [start(k) for k in range(half)]
        result = phase("timed", None)
        starts += [start(k) for k in range(half, SETUP_STARTS)]
        run.metrics.update({
            "setup_s": median(starts),
            "jobs_per_s": result.jobs_per_s,
            "latency_p50_s": median(result.latencies),
            "peak_rss_mb": result.peak_rss_mb,
        })
        return
    import layers

    # The traced run has no set-up samples, so warm the bytecode caches.
    start("warm")
    untraced = phase("untraced", None)
    trace_dir = run.path("trace")
    os.makedirs(trace_dir)
    traced = phase("traced", trace_dir)
    spans = layers.load_spans(trace_dir)
    solved = layers.job_totals(spans, traced.job_ids)
    for job_id, counts in untraced.counts.items():
        for key in ("conflicts", "qa_calls"):
            if int(counts.get(key) or 0) != solved.get(job_id, {}).get(key):
                run.problems.append(f"{job_id}: {key} differ when traced")
    run.metrics.update(layers.layer_metrics(spans, traced.job_ids))
    waits = [e["started"] - e["ack"] for e in traced.events.values()
             if "started" in e and "ack" in e]
    if waits:
        run.metrics["gateway.queue_wait_s"] = median(waits)
    run.metrics.update({
        "trace.jobs_per_s": traced.jobs_per_s,
        "trace.untraced_jobs_per_s": untraced.jobs_per_s,
        "trace.overhead_ratio": untraced.jobs_per_s / traced.jobs_per_s - 1.0,
        "setup.import_s": import_seconds(run),
    })
    for name in REQUIRED_LAYER_METRICS[run.workload]:
        run.expect(
            run.metrics.get(name, 0) > 0, f"layer metric {name} was not measured"
        )


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def ready_seconds(run: Run, tag: str, args: List[str]) -> float:
    """Launch to ready of one fresh ``hyqsat`` process running ``args``:
    ``program.py ready`` signals on a pipe once the program could take
    its first job, then the command finishes untimed."""
    read_end, write_end = os.pipe()
    config = run.write(
        f"ready-{tag}.json", json.dumps({"args": args, "fd": write_end})
    )
    start = time.perf_counter()
    proc = run.popen(
        [PYTHON, os.path.join(HERE, "program.py"), "ready", config],
        pass_fds=(write_end,),
    )
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], WAIT_S)
        line = os.read(read_end, 16) if ready else b""
        elapsed = time.perf_counter() - start
    except BaseException:
        stop(proc)
        raise
    finally:
        os.close(read_end)
    wait(proc)
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"{args[0]} start exited {proc.returncode}")
    return elapsed


def import_seconds(run: Run) -> float:
    """Median wall time of ``import repro`` in fresh processes."""
    code = (
        "import time; t = time.perf_counter(); import repro; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_STARTS):
        out = subprocess.run(
            [PYTHON, "-c", code], cwd=ROOT, env=run.env, check=True,
            capture_output=True, text=True, timeout=WAIT_S,
        ).stdout
        samples.append(float(out.strip()))
    return median(samples)


def tiny_formula(run: Run) -> str:
    return run.write("tiny/tiny.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")


# ---------------------------------------------------------------------------
# batch-hard
# ---------------------------------------------------------------------------


def batch_hard(run: Run) -> None:
    import workloads
    from repro.service.journal import read_journal

    jobs = workloads.batch_hard(run.seed, max(1, round(run.seconds / BATCH_JOB_S)))
    # File names fix the submission order: longest first.
    by_id = {f"job-{index:02d}": job for index, job in enumerate(jobs)}
    for job_id, job in by_id.items():
        run.write(f"batch/{job_id}.cnf", job.dimacs())
    tiny_dir = os.path.dirname(tiny_formula(run))

    # One pool worker: two solves at once on a host shared with other
    # tenants measured how much of the second vCPU was free.
    def batch_argv(directory: str, tag: str) -> List[str]:
        return [directory, "--jobs", "1", "--pool", "process",
                "--journal", run.path(f"{tag}.journal")]

    def start(tag) -> float:
        return ready_seconds(
            run, str(tag), ["batch", *batch_argv(tiny_dir, f"start-{tag}")]
        )

    def phase(tag: str, trace_dir: Optional[str]) -> Phase:
        result = run.program("batch", {
            "warmup_args": batch_argv(tiny_dir, f"{tag}-warm"),
            "args": batch_argv(run.path("batch"), tag),
        }, trace_dir)
        lines = [(at, json.loads(line)) for at, line in result["lines"] if line.strip()]
        outcomes = {outcome["id"]: outcome for _, outcome in lines}
        missing = set(by_id) - set(outcomes)
        run.attempted += len(missing)
        run.failed += len(missing)
        oks = count_answers(run, [
            (by_id[o["id"]], o.get("state"), o.get("status"), o.get("model"))
            for _, o in lines
        ])
        busy = sum(o.get("run_seconds", 0.0) for o in outcomes.values())
        run.expect(
            result["child_cpu_s"] > 0.5 * busy,
            f"jobs did not run in a pool worker process (worker CPU "
            f"{result['child_cpu_s']:.1f} s for {busy:.1f} s of solving)",
        )
        records, _, torn = read_journal(run.path(f"{tag}.journal"))
        done = {r.get("id") for r in records if r.get("k") == "done"}
        run.expect(
            done >= set(by_id) and torn == 0,
            "journal lacks a durable done record per job",
        )
        return Phase(
            job_ids=list(by_id),
            jobs_per_s=sum(oks) / result["wall_s"],
            latencies=answered([at - result["start"] for at, _ in lines], oks),
            peak_rss_mb=result["peak_rss_mb"],
            counts=outcomes,
        )

    measure(run, start, phase)
    if run.trace:
        run.expect(
            run.metrics["service.worker_processes"] == 1,
            "jobs did not run in one pool worker process",
        )
        run.expect(
            run.metrics["service.journal_fsyncs"] > 0, "journal never fsynced"
        )


# ---------------------------------------------------------------------------
# gateway-zipf
# ---------------------------------------------------------------------------


class Wire:
    """A minimal client of the gateway's JSONL protocol."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=WAIT_S)
        self.file = self.sock.makefile("rwb")

    def send(self, message: dict) -> None:
        self.file.write((json.dumps(message) + "\n").encode("utf-8"))
        self.file.flush()

    def read(self) -> dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    def hello(self) -> None:
        from repro.gateway import protocol

        self.send(protocol.hello())
        reply = self.read()
        if reply.get("type") != "welcome":
            raise RuntimeError(f"expected welcome, got {reply}")

    def close(self) -> None:
        from repro.gateway import protocol

        try:
            self.send(protocol.bye())
            while self.read().get("type") != "goodbye":
                pass
        finally:
            self.file.close()
            self.sock.close()


def start_gateway(run: Run, tag: str, trace_dir=None):
    """Start a gateway; returns (process, port) once it listens."""
    args = ["--port", "0", "--jobs", "2", "--fleet", FLEET,
            "--cache-db", run.path(f"{tag}.sqlite"), *NO_LIMITS]
    if trace_dir:
        config = {"args": args, "trace_dir": trace_dir,
                  "out": run.path(f"{tag}-result.json")}
        argv = [PYTHON, os.path.join(HERE, "program.py"), "gateway",
                run.write(f"{tag}-config.json", json.dumps(config))]
    else:
        argv = [PYTHON, "-m", "repro.cli", "gateway", *args]
    proc = run.popen(argv, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WAIT_S)
        line = proc.stdout.readline().decode() if ready else ""
    except BaseException:
        stop(proc)
        raise
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    if match is None:
        stop(proc)
        raise RuntimeError(f"gateway did not start: {line!r}")
    return proc, int(match.group(1))


def gateway_setup(run: Run, tag: str) -> float:
    """Launch to a completed hello/welcome."""
    start = time.perf_counter()
    proc, port = start_gateway(run, tag)
    try:
        wire = Wire(port)
        wire.hello()
        elapsed = time.perf_counter() - start
        wire.close()
    finally:
        stop(proc)
    return elapsed


def stream_jobs(wire: Wire, stream, texts: Dict[str, str]):
    """Closed loop, ``OUTSTANDING`` deep.  A repeat goes out only after
    its first occurrence's answer is back, and a near-miss variant only
    after its parent's, so the cache holds the same entries at each job
    on every run of a seed; the next eligible job in stream order is
    sent.  Returns per-job records and the wall time."""
    from repro.gateway import protocol

    pending = list(enumerate(stream.order))
    outstanding: Dict[str, dict] = {}
    records: Dict[str, dict] = {}
    sent, answered = set(), set()

    def eligible(name: str) -> bool:
        if name in sent:
            return name in answered
        parent = stream.items[name].parent
        return parent is None or parent in answered

    start = time.perf_counter()
    while pending or outstanding:
        while len(outstanding) < OUTSTANDING:
            pick = next(
                (k for k, (_, name) in enumerate(pending) if eligible(name)),
                None,
            )
            if pick is None:
                break
            index, name = pending.pop(pick)
            sent.add(name)
            job_id = f"j{index:05d}"
            record = records[job_id] = {"item": name, "sent": time.perf_counter()}
            outstanding[job_id] = record
            wire.send(protocol.submit({
                "id": job_id, "dimacs": texts[name],
                "seed": stream.items[name].seed,
            }))
        message = wire.read()
        now = time.perf_counter()
        kind = message.get("type")
        record = records.get(message.get("id"))
        if kind == "error" or record is None:
            raise RuntimeError(f"unexpected gateway message {message}")
        if kind == "ack":
            record["ack"] = now
        elif kind == "event":
            record[message["event"]] = now
            if message["event"] == "routed":
                record["device"] = message["attrs"]["device"]
        elif kind in ("result", "reject"):
            record["done"] = now
            record["outcome"] = message.get("outcome") or {
                "state": "rejected", "error": message.get("code"),
            }
            outstanding.pop(message["id"])
            answered.add(record["item"])
    return records, time.perf_counter() - start


def gateway_zipf(run: Run) -> None:
    import workloads
    from repro.gateway import protocol

    stream = workloads.gateway_zipf(run.seed, int(run.seconds * GATEWAY_JOBS_PER_S))
    texts = {name: item.dimacs() for name, item in stream.items.items()}
    warm = workloads.warmup_instance(90, run.seed)

    def phase(tag: str, trace_dir: Optional[str]) -> Phase:
        proc, port = start_gateway(run, tag, trace_dir)
        try:
            wire = Wire(port)
            wire.hello()
            # Untimed warm-up job: a formula no stream instance can
            # subsume or be subsumed by.
            wire.send(protocol.submit(
                {"id": "warmup", "dimacs": warm.dimacs(), "seed": 0}
            ))
            while wire.read().get("type") != "result":
                pass
            records, wall = stream_jobs(wire, stream, texts)
            wire.close()
            peak = vm_hwm_mb(proc.pid)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"gateway exited {proc.returncode}")
        oks = count_answers(run, [
            (stream.items[r["item"]], r["outcome"].get("state"),
             r["outcome"].get("status"), r["outcome"].get("model"))
            for r in records.values()
        ])
        done = [r for r in records.values() if r["outcome"].get("state") == "done"]
        cached = [r for r in done if r["outcome"].get("cached")]
        run.expect(2 * len(cached) > len(done), "most jobs were not cache reads")
        run.expect(
            any(r["outcome"].get("cache_kind") in ("model", "unsat") for r in cached),
            "no subsumption answer was served",
        )
        run.expect(
            all(r.get("device") in FLEET_DEVICES for r in done),
            "a job was answered without being routed to a fleet device",
        )
        return Phase(
            job_ids=list(records),
            jobs_per_s=sum(oks) / wall,
            latencies=answered([r["done"] - r["sent"] for r in records.values()], oks),
            peak_rss_mb=peak,
            events=records,
        )

    measure(run, lambda k: gateway_setup(run, f"start-{k}"), phase)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "batch-hard": batch_hard,
    "gateway-zipf": gateway_zipf,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every program process started
    # so far is stopped before the harness exits.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no program sources under {SRC}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
    except BaseException:
        run.log.close()
        with open(run.path("program.log"), encoding="utf-8", errors="replace") as handle:
            sys.stderr.write(handle.read()[-4000:])
        raise
    finally:
        run.log.close()
        shutil.rmtree(run.dir, ignore_errors=True)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in run.metrics:
            value = float(run.metrics[name])
        elif args.trace:
            value = 0.0  # a layer this workload never enters
        else:
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": metric["unit"]}
    for problem in run.problems:
        log(problem)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
