"""Runs a workload's jobs inside one program process.

Usage: ``python perfbench/program.py <batch|gateway|ready> <config.json>``

The harness (``run.py``) starts this script as the program process, so
the program's memory and CPU are measured apart from the harness.
With ``trace_dir`` in the config, the layer wrappers of
``tracing.py`` are installed before the program's entry point runs;
otherwise the program runs untouched.

- ``batch``: one untimed warm-up batch, then the timed
  ``repro.cli.main(["batch", ..., "-o", "-"])`` call; each result line
  is stamped when the program writes it.
- ``gateway``: ``repro.cli.main(["gateway", ...])`` until SIGINT drains
  it (the traced gateway; the untraced one is started directly).
- ``ready``: ``repro.cli.main(args)`` for one ``setup_s`` sample; writes
  ``ready`` to the pipe the harness passed once the program could take
  its first job, then lets the command finish.

Writes a JSON result to ``config["out"]``: the wall time and stamped
result lines for ``batch``, and the process's peak resident set (its
own and its largest reaped child's).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children, in MB."""
    own = 0
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1])
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class _StampedLines(io.TextIOBase):
    """A stdout stand-in that notes when each line arrives."""

    def __init__(self):
        self.lines = []
        self._partial = ""

    def write(self, text):
        self._partial += text
        *complete, self._partial = self._partial.split("\n")
        now = time.perf_counter()
        self.lines.extend([now, line] for line in complete)
        return len(text)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_batch(config):
    import repro.cli

    with contextlib.redirect_stdout(io.StringIO()):
        repro.cli.main(["batch", *config["warmup_args"], "-o", "-"])
    results = _StampedLines()
    cpu = children_cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(results):
        repro.cli.main(["batch", *config["args"], "-o", "-"])
    end = time.perf_counter()
    return {
        "start": start, "wall_s": end - start, "lines": results.lines,
        # CPU time of the batch's reaped pool workers.
        "child_cpu_s": children_cpu_s() - cpu,
    }


def run_ready(config) -> int:
    """Runs the ``batch`` command ``config["args"]`` and signals on
    ``config["fd"]`` once the program is ready: the first job handed to
    the opened worker pool."""
    from repro.service.pool import WorkerPool

    submit = WorkerPool.submit
    pending = [config["fd"]]

    @functools.wraps(submit)
    def signalling(*args, **kwargs):
        result = submit(*args, **kwargs)
        if pending:
            fd = pending.pop()
            os.write(fd, b"ready\n")
            os.close(fd)
        return result

    WorkerPool.submit = signalling
    import repro.cli

    return repro.cli.main(config["args"])


def main(argv) -> int:
    mode, config_path = argv
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    if mode == "ready":
        return run_ready(config)
    recorder = None
    if config.get("trace_dir"):
        import tracing

        recorder = tracing.install(config["trace_dir"])
    try:
        if mode == "gateway":
            import repro.cli

            result = {"code": repro.cli.main(["gateway", *config["args"]])}
        elif mode == "batch":
            result = run_batch(config)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if recorder is not None:
            recorder.flush()
    result["peak_rss_mb"] = peak_rss_mb()
    with open(config["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
