"""Benchmark worker: runs ``fockspace.cli.main`` once per request, in a fork.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.  It
reads its configuration as JSON on stdin, imports the CLI once, and then
forks one child per request.  Each child starts from the state a freshly
imported ``fockspace`` has, as a separate CLI call would, so caches filled
by one request never serve another.  The child times ``main(argv)`` with
stdout captured and writes one result record (and, when asked, the output
itself) to this process's stdout; the worker then reaps it and writes an
exit record with the child's peak RSS.

Records are JSON lines.  A ``result`` record with ``"bytes": n`` is followed
by n bytes of captured output.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import select
import signal
import statistics
import sys
import time

from calibration import calibrate

EXIT_NO_RECORD = 70
# CPU time between calibration slices taken in the middle of a request, so
# that a long request is scaled by the host speed it actually ran at
SAMPLE_EVERY_S = 0.01


class RequestTimeout(BaseException):
    """Raised in a child when its request overruns the time limit."""


def _write(data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(1, view):]


def _record(fields: dict, payload: bytes = b"") -> None:
    _write(json.dumps(fields).encode() + b"\n" + payload)


def _on_alarm(signum, frame):
    raise RequestTimeout()


def _child(argv, tag, limit_s, send_output, tracer, spans_path) -> None:
    from fockspace import cli

    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    error = None
    rc = None
    calibrate()  # the first slice in a fresh fork pays its page faults
    calibrations = [calibrate()]
    if tracer is None:
        # a slice inside a traced request would land in some span's self time
        signal.signal(signal.SIGPROF, lambda signum, frame: calibrations.append(calibrate()))
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except RequestTimeout:
        error = f"overran the {limit_s:g} s request limit"
    except Exception as exc:  # a request that raises is a failed request
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    # the slices taken during the request are not the request's own time
    latency -= sum(calibrations[1:])
    calibrations.append(calibrate())
    # the median shrugs off a slice that a timer tick or a preemption hit
    calibration = statistics.median(calibrations)
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    output = out.getvalue().encode()
    fields = dict(tag, kind="result", rc=rc, error=error, lat=latency, cal=calibration,
                  sha=hashlib.sha256(output).hexdigest(), bytes=0, trace=None)
    if tracer is not None:
        from tracer import cache_counts

        fields["trace"] = {
            "calls": tracer.calls,
            "errors": tracer.errors,
            "self": tracer.self_times(),
            "caches": cache_counts(),
        }
        if spans_path:
            with open(spans_path, "a") as stream:
                tracer.write_spans(stream, tag["req"])
    if send_output:
        fields["bytes"] = len(output)
        _record(fields, output)
    else:
        _record(fields)


def _run_one(argv, tag, config, tracer, spans_path) -> None:
    pid = os.fork()
    if pid == 0:
        code = EXIT_NO_RECORD
        try:
            _child(argv, tag, config["limit_s"], tag["phase"] == 0 and tag["pass"] == 0,
                   tracer, spans_path)
            code = 0
        finally:
            os._exit(code)
    killed = False
    pidfd = os.pidfd_open(pid)
    try:
        # the child enforces the limit itself; this catches one stuck in C code
        ready, _, _ = select.select([pidfd], [], [], config["limit_s"] + 10)
        if not ready:
            os.kill(pid, signal.SIGKILL)
            killed = True
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(pid, 0)
    _record(dict(tag, kind="exit", status=status, killed=killed, rss_kb=usage.ru_maxrss))


def main() -> int:
    config = json.load(sys.stdin)
    requests = config["requests"]
    import fockspace.cli  # noqa: F401  (the import every request shares)

    tracer = None
    hard_deadline = time.perf_counter() + config["budget_s"]
    for phase_no, phase in enumerate(config["phases"]):
        spans_path = None
        if phase["traced"] and tracer is None:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
            spans_path = config.get("spans_path")
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + phase["seconds"]
        pass_no = 0
        while True:
            for req, argv in enumerate(requests):
                now = time.perf_counter()
                if now >= hard_deadline:
                    return 0
                if pass_no > 0 and now >= deadline:
                    break
                tag = {"phase": phase_no, "pass": pass_no, "req": req}
                _run_one(argv, tag, config, tracer, spans_path if pass_no == 0 else None)
            pass_no += 1
            if time.perf_counter() >= deadline:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
