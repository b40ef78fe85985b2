"""taupart benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; taupart is imported from its `src/`.  One
process serves one workload as a closed loop with a single client: it calls
`taupart.cli.main` in-process, one item at a time, captures stdout and times
each call from outside with `time.perf_counter`.  End-to-end times are
scaled to a reference host speed measured with a calibration kernel (see
REFERENCE_KERNEL_S); the raw wall times are printed as well.

--trace 0 sets up the inputs in fresh processes (SETUP_REPEATS times; each
imports taupart and generates the inputs from the seed), then calls items
for S seconds, cycling through them, with no wrappers installed.  After the
timed phase every output is checked (see workloads.py).  The last stdout
line is a JSON object with the end-to-end metrics.

--trace 1 generates the inputs in-process and runs exactly one pass over
every item twice: untraced, then with span wrappers on every layer function
(tracing.py).  The pass is fixed, so the counts repeat exactly for a seed.
The last stdout line holds the per-layer metrics; the spans are written to
`.bench_out/`.

Exit codes: 0 with a result line; 1 when an output check failed (the result
line is still printed, with "correct": false) or when the taupart sources
are missing; 2 when the benchmark refuses to run (bad arguments,
TAUPART_MAX_N set, input generation failed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing as T
import workloads as W  # exits with a message when the taupart sources are missing

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# Host speed.  On a shared host the same code runs up to ~1.5x slower for
# seconds or minutes at a time.  The benchmark times a fixed pure-Python
# kernel (no taupart code) at least every CALIBRATE_EVERY_S and scales each
# timing by REFERENCE_KERNEL_S / (kernel time around it), so the end-to-end
# times read as on a host where the kernel takes REFERENCE_KERNEL_S.  Raw
# wall times are printed and kept in the result file.
REFERENCE_KERNEL_S = 0.001
CALIBRATE_EVERY_S = 0.1
_MASK64 = (1 << 64) - 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p95": "ms",
    "peak_rss_mib": "MiB",
}

# ROADMAP baseline for hunt-2c7: certificates, fallbacks, brute-force calls
# and witness counts by kind and case over the 468 classes.
HUNT_BASELINE = {
    "partition.certificates": 2798,
    "partition.fallbacks": 603,
    "partition.brute_force_calls": 702,
    "partition.failed_steps.bound.case-1.2": 553,
    "partition.failed_steps.bound.case-3": 149,
    "partition.failed_steps.migration-audit.case-1.2": 584,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_record(workload: str, seed: int, trace: int) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None}


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: xorshift steps, list updates
    and bit tricks, the operations the subset DPs spend their time on."""
    t0 = time.perf_counter()
    x, table, acc = 0x9E3779B97F4A7C15, [0] * 64, 0
    for _ in range(2400):
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        table[x & 63] |= x & 0xFFFF
        acc += (x & -x).bit_length()
    return time.perf_counter() - t0


def host_speed() -> float:
    """REFERENCE_KERNEL_S over the median of five kernel runs: below 1 on a
    slow host."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_seconds() for _ in range(5))


def pin_to_one_cpu() -> None:
    """Run this process, and the set-up processes it starts, on the last CPU
    it may use.  On a shared host the CPUs of one machine can run at
    different speeds from one second to the next; staying on one CPU keeps
    the scheduler from moving the benchmark between them mid-run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def setup_in_fresh_processes(w, seed: int) -> tuple[list[dict], list[tuple[float, float]]]:
    """Time SETUP_REPEATS fresh processes that import taupart and generate
    the inputs; all must produce the same inputs.  Returns the inputs and,
    per process, its wall time and the host speed around it."""
    times, outputs = [], set()
    for _ in range(SETUP_REPEATS):
        speed_before = host_speed()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), w.name, str(seed)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        times.append((time.perf_counter() - t0, (speed_before + host_speed()) / 2))
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed: {proc.stderr.strip()}")
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        raise RuntimeError("input generation is not deterministic for this seed")
    return json.loads(outputs.pop()), times


def run_items(w, items: list[dict], seconds: float | None) -> tuple[list[tuple], float]:
    """Closed loop, one client.  With `seconds`, cycle through the items until
    that much time has passed; without, make exactly one pass.  Returns
    (index, exit code, stdout, stderr, latency, host speed) per call and the
    wall time.  The host speed of a call is the mean of the calibrations just
    before and just after it; calibration time is not part of any latency."""
    calls, speeds = [], [host_speed()]
    last_cal = t0 = time.perf_counter()
    deadline = t0 + seconds if seconds is not None else None
    i = 0
    while deadline is not None or i < len(items):
        idx = i % len(items)
        argv, stdin = w.call(items[idx])
        t = time.perf_counter()
        rc, out, err = W.call_cli(argv, stdin)
        end = time.perf_counter()
        calls.append([idx, rc, out, err, end - t, len(speeds) - 1])
        i += 1
        done = (end >= deadline) if deadline is not None else i == len(items)
        if done or end - last_cal >= CALIBRATE_EVERY_S:
            speeds.append(host_speed())
            last_cal = time.perf_counter()
        if done:
            break
    wall = time.perf_counter() - t0
    for c in calls:
        c[5] = (speeds[c[5]] + speeds[min(c[5] + 1, len(speeds) - 1)]) / 2
    return [tuple(c) for c in calls], wall


def check_calls(w, items: list[dict], calls: list[tuple]) -> tuple[list[str], int, int]:
    """Check every call; a repeated item must give the output of its first call.
    Returns (failure details, fallback count, certificate count)."""
    failures, fb_num, fb_den = [], 0, 0
    first: dict[int, tuple] = {}
    for idx, rc, out, err, *_ in calls:
        if idx in first:
            (rc0, out0), outcome = first[idx]
            if (rc, out) != (rc0, out0):
                outcome = W.Outcome(False, (0, 0), "output differs from the item's first call")
        else:
            outcome = W.check_call(w, items[idx], rc, out, err)
            first[idx] = ((rc, out), outcome)
        if not outcome.ok:
            failures.append(f"item {idx}: {outcome.detail}")
        fb_num += outcome.fallback[0]
        fb_den += outcome.fallback[1]
    return failures, fb_num, fb_den


def measure(w, seed: int, seconds: int) -> dict:
    items, setups = setup_in_fresh_processes(w, seed)
    calls, wall = run_items(w, items, seconds)
    failures, fb_num, fb_den = check_calls(w, items, calls)
    raw = [c[4] for c in calls]
    lat = [c[4] * c[5] for c in calls]  # as on the reference host
    metrics = {
        "setup_s": statistics.median(t * speed for t, speed in setups),
        "items_per_s": len(calls) / sum(lat),
        "item_ms_p50": statistics.median(lat) * 1000.0,
        "item_ms_p95": statistics.quantiles(lat, n=20, method="inclusive")[18] * 1000.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unscaled = {"setup_s": statistics.median(t for t, _ in setups),
                "items_per_s": len(calls) / wall,
                "item_ms_p50": statistics.median(raw) * 1000.0,
                "item_ms_p95": statistics.quantiles(raw, n=20, method="inclusive")[18] * 1000.0}
    return {"metrics": metrics, "units": END_TO_END_UNITS, "unscaled": unscaled,
            "attempted": len(calls), "failures": failures, "samples": len(lat),
            "distinct_items": len({c[0] for c in calls}), "setups_s_and_speed": setups,
            "timed_wall_s": wall, "host_speed_median": statistics.median(c[5] for c in calls),
            "fallback_rate": fb_num / fb_den if fb_den else 0.0}


def measure_traced(w, seed: int) -> dict:
    setup_tracer = T.Tracer()
    setup_tracer.install()
    try:
        items = w.inputs(seed)
    finally:
        setup_tracer.uninstall()
    plain, plain_wall = run_items(w, items, None)
    tracer = T.Tracer()
    tracer.install()
    try:
        calls, traced_wall = run_items(w, items, None)
    finally:
        tracer.uninstall()
    failures, fb_num, fb_den = check_calls(w, items, calls)
    failures += [f"item {a[0]}: traced output differs from the untraced one"
                 for a, b in zip(plain, calls) if a[1:3] != b[1:3]]
    metrics = T.layer_metrics(tracer, setup_tracer, traced_wall - plain_wall)
    W.OUT_DIR.mkdir(exist_ok=True)
    tracer.save(W.OUT_DIR / f"{w.name}-spans.npz")
    setup_tracer.save(W.OUT_DIR / f"{w.name}-setup-spans.npz")
    out = {"metrics": metrics, "units": T.PER_LAYER_UNITS, "attempted": len(calls),
           "failures": failures, "samples": len(calls),
           "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
           "fallback_rate": fb_num / fb_den if fb_den else 0.0}
    if w.name == "hunt-2c7":
        out["baseline_diff"] = {k: [v, metrics[k]] for k, v in HUNT_BASELINE.items() if metrics[k] != v}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if "TAUPART_MAX_N" in os.environ:
        print("benchmark: TAUPART_MAX_N is set; it changes every capacity cap, refusing to run",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("benchmark: --seconds must be at least 1", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {', '.join(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    W.OUT_DIR.mkdir(exist_ok=True)
    pin_to_one_cpu()
    env = env_record(w.name, args.seed, args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        res = measure_traced(w, args.seed)
    else:
        try:
            res = measure(w, args.seed, args.seconds)
        except RuntimeError as exc:  # set-up failed; there is nothing to measure
            print(f"benchmark: {exc}", file=sys.stderr)
            return 2

    failed = len(res["failures"])
    for detail in res["failures"][:20]:
        print(f"check failed: {detail}")
    for name, value in res["metrics"].items():
        print(f"{w.name} {name} = {value:.6g} {res['units'][name]}")
    print(f"{w.name} error_rate = {failed / res['attempted']:.6g} ({failed} of {res['attempted']} calls)")
    print(f"{w.name} samples = {res['samples']}")
    print(f"{w.name} fallback_rate = {res['fallback_rate']:.6g} ratio")
    for name, value in res.get("unscaled", {}).items():
        print(f"{w.name} unscaled {name} = {value:.6g} {res['units'][name]} "
              f"(host speed {res['host_speed_median']:.3f} of the reference)")
    if args.trace:
        print(f"{w.name} tracing overhead = {res['metrics']['trace.overhead_s']:.3f} s "
              f"(traced {res['traced_wall_s']:.3f} s, untraced {res['untraced_wall_s']:.3f} s)")
        if "baseline_diff" in res:
            diff = res["baseline_diff"]
            print("hunt-2c7 ROADMAP baseline: " + ("reproduced" if not diff else f"differs {diff}"))
    with open(W.OUT_DIR / f"{w.name}-trace{args.trace}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, **res}, fh, indent=1, sort_keys=True)

    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
              "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
