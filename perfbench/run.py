"""Benchmark of the ``fockspace`` CLI: one seeded workload per run.

    python3 perfbench/run.py --workload cores_blocks --seed 1 --seconds 25 --trace 0

One closed-loop client sends the workload's requests one at a time through
``fockspace.cli.main`` in a worker process (see ``worker.py``), going round
the list until ``--seconds`` have passed; the first pass always completes.
Every response is checked by an independent oracle (``oracles.py``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it spends half the time untraced and half with spans around
each module's public functions (``tracer.py``), and reports per-layer calls
and self times per pass, cache hit ratios, errors and the tracing overhead.
The spans of the first traced pass go to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402

REQUEST_LIMIT_S = 20.0
# the worker stops starting requests after this; the run must end by 180 s
WORKER_BUDGET_S = 140.0
WORKER_KILL_S = 165.0
SETUP_SAMPLES = 7
TAIL_BEYOND = 10


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median seconds a fresh interpreter spends importing ``fockspace.cli``.

    Each sample is scaled to the reference speed like every other time.
    """
    samples = []
    # the first import may compile bytecode; users pay that once, not per call
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], env=_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        elapsed, calibration = (float(x) for x in done.stdout.split())
        if k:
            samples.append(elapsed * REFERENCE_S / calibration)
    return statistics.median(samples)


def run_worker(requests, phases, spans_path) -> list[dict]:
    """Run the worker to completion; returns its records (payloads inlined)."""
    config = {
        "requests": requests,
        "phases": phases,
        "limit_s": REQUEST_LIMIT_S,
        "budget_s": WORKER_BUDGET_S,
        "spans_path": spans_path,
    }
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], env=_env(), cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
    )

    def kill_group() -> None:
        # the worker's forked children share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(WORKER_KILL_S, kill_group)
    watchdog.start()
    records = []
    try:
        proc.stdin.write(json.dumps(config).encode())
        proc.stdin.close()
        for line in proc.stdout:
            record = json.loads(line)
            if record["kind"] == "result" and (record["phase"], record["pass"]) == (0, 0):
                record["output"] = proc.stdout.read(record["bytes"]).decode()
            records.append(record)
    finally:
        watchdog.cancel()
        if proc.wait() != 0:
            kill_group()
    return records


class Samples:
    """Results of one phase, per request, after every check is applied."""

    def __init__(self, n_requests: int):
        self.latency: list[list[float]] = [[] for _ in range(n_requests)]
        self.trace: list[list[dict]] = [[] for _ in range(n_requests)]
        self.speed: list[float] = []
        self.attempted = 0
        self.failed = 0

    def wall(self) -> float:
        return sum(statistics.median(lat) for lat in self.latency if lat)


def collect(records, requests, n_phases):
    """Pair results with exit records, check outputs, and count failures."""
    phases = [Samples(len(requests)) for _ in range(n_phases)]
    results = {}
    exits = {}
    for record in records:
        key = (record["phase"], record["pass"], record["req"])
        (results if record["kind"] == "result" else exits)[key] = record
    first = {
        key[2]: r["output"]
        for key, r in sorted(results.items())
        if key[:2] == (0, 0) and r["error"] is None
    }
    reasons = {req: why for req, out in first.items() if (why := oracles.check_response(requests[req], out))}
    checked = list(first)
    for k, why in oracles.check_together([(requests[req], first[req]) for req in checked]).items():
        reasons.setdefault(checked[k], why)
    expected_sha = {req: results[(0, 0, req)]["sha"] for req in first if req not in reasons}
    failures = []
    peak_kb = 0
    for key, exit_record in sorted(exits.items()):
        phase, _, req = key
        peak_kb = max(peak_kb, exit_record["rss_kb"])
        samples = phases[phase]
        samples.attempted += 1
        r = results.get(key)
        if r is not None and r["trace"] is not None:
            # failed requests count too: their calls and errors are work done
            r["trace"]["self"] = [x * REFERENCE_S / r["cal"] for x in r["trace"]["self"]]
            samples.trace[req].append(r["trace"])
        if r is None:
            why = "killed" if exit_record["killed"] else f"ended without a result (status {exit_record['status']})"
        elif r["error"] is not None:
            why = r["error"]
        elif req in reasons:
            why = reasons[req]
        elif r["sha"] != expected_sha.get(req):
            why = "output differs from the checked output of the same request"
        else:
            scale = REFERENCE_S / r["cal"]
            samples.speed.append(scale)
            samples.latency[req].append(r["lat"] * scale)
            continue
        samples.failed += 1
        failures.append(f"{' '.join(requests[req])[:120]}: {why}")
    ran = {(phase, req) for phase, _, req in exits}
    for phase, samples in enumerate(phases):
        for req in range(len(requests)):
            if (phase, req) not in ran:
                samples.attempted += 1
                samples.failed += 1
                failures.append(f"{' '.join(requests[req])[:120]}: not run within the time budget")
    return phases, failures, peak_kb / 1024


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(samples: Samples, peak_mb: float, setup_s: float) -> tuple[dict, str]:
    per_request = [statistics.median(lat) for lat in samples.latency if lat]
    tail_s, tail_pct = tail(per_request)
    metrics = {
        "wall_s": (samples.wall(), "s"),
        # the lower median is one request's own time; with few requests the
        # mean of the middle two jumps whenever noise swaps their order
        "req_p50_ms": (1000 * statistics.median_low(per_request), "ms"),
        "req_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    note = f"req_tail_ms is p{tail_pct:.1f} of {len(per_request)} requests (each the median of its passes)"
    return metrics, note


def per_layer(untraced: Samples, traced: Samples) -> dict:
    """Per-pass calls, self time and errors of each traced function."""
    n = len(tracer.FUNCTIONS)
    calls, self_s, errors = [0.0] * n, [0.0] * n, [0.0] * n
    hits: dict[str, list[int]] = {name: [0, 0] for name in tracer.CACHES}
    for runs in traced.trace:
        if not runs:
            continue
        for j in range(n):
            calls[j] += statistics.median(r["calls"][j] for r in runs)
            self_s[j] += statistics.median(r["self"][j] for r in runs)
            errors[j] += statistics.median(r["errors"][j] for r in runs)
        for name, (h, m) in runs[0]["caches"].items():
            hits[name][0] += h
            hits[name][1] += m
    metrics = {}
    modules = {module: [0.0, 0.0] for module in tracer.MODULES}
    for j, qualified in enumerate(tracer.FUNCTIONS):
        metrics[f"{qualified}.calls"] = (calls[j], "count")
        module, name = qualified.split(".")
        if name not in tracer.COUNTED.get(module, ()):
            metrics[f"{qualified}.self_s"] = (self_s[j], "s")
        modules[module][0] += self_s[j]
        modules[module][1] += errors[j]
    for module, (s, e) in modules.items():
        metrics[f"{module}.self_s"] = (s, "s")
        metrics[f"{module}.errors"] = (e, "count")
    for name, (h, m) in hits.items():
        metrics[f"{name}.hit_ratio"] = (h / (h + m) if h + m else 0.0, "ratio")
    metrics["trace.overhead"] = (traced.wall() / untraced.wall() if untraced.wall() else 0.0, "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its report, and return its result object."""
    requests = requests_for(workload, seed)
    spans_path = None
    if trace:
        phases = [{"traced": False, "seconds": seconds / 2}, {"traced": True, "seconds": seconds / 2}]
        spans_path = HERE / "out" / f"spans-{workload}.tsv"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.unlink(missing_ok=True)
    else:
        phases = [{"traced": False, "seconds": seconds}]
        setup_s = measure_setup()
    records = run_worker(requests, phases, spans_path and str(spans_path))
    samples, failures, peak_mb = collect(records, requests, len(phases))
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)

    print(f"workload {workload}  seed {seed}  {len(requests)} requests  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if not all(any(s.latency) for s in samples):
        raise RuntimeError(f"no request of {workload} produced a checked result")
    if trace:
        metrics = per_layer(samples[0], samples[1])
        print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        metrics, note = end_to_end(samples[0], peak_mb, setup_s)
        print(note)
    scales = [x for s in samples for x in s.speed]
    print(f"times are scaled to the reference speed; median scale {statistics.median(scales):.4g} "
          f"(calibration slice {REFERENCE_S / statistics.median(scales) * 1e3:.4g} ms, "
          f"reference {REFERENCE_S * 1e3:g} ms)")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fockspace" / "cli.py").is_file():
        print(f"error: no fockspace sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        # one object for the whole set, metric names prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
