#!/usr/bin/env python3
"""Run one EMPROF benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch_dense --seed 1 --seconds 25 --trace 0

Run from the root of an EMPROF source tree.  The first run builds the
project (Release, tests off) and the benchmark program into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build.  Inputs are generated from --seed under .bench_work and removed
afterwards; traced runs keep their Chrome trace there.

--trace 0 times the workload and prints every end-to-end metric named in
BENCHMARK.json; --trace 1 runs the separate traced run and prints every
per-layer metric.  Each metric is printed as "name value unit", then
hardware_threads, the seed and the operation counts, and last one JSON
object with the keys correct, attempted, failed and metrics.  Any wrong
output (a result that differs from the streaming-path reference) makes
correct false and the exit code 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
PEAK_REPEATS = 3  # batch peak_rss_mb: median of this many one-shot runs
RUN_LIMIT_S = 170  # a run after the build must end within this

BATCH = {
    "batch_dense": {"kind": "dense", "mode": "classic"},
    "batch_impaired": {"kind": "impaired", "mode": "resilient"},
}
BATCH_SAMPLES = 1 << 26  # 64 Mi samples at 40 MHz, ~1.7 s of capture

# serve_fleet: 64 Ki-sample uploads (~211 KB).  The timed run pushes them
# through the daemon in closed-loop passes, then times their analysis
# through local SessionPipelines.  The traced run adds the open-loop
# load, whose rates and windows are fixed in src/fleet.cpp.
FLEET = {
    "uploads": 32,
    "samples": 1 << 16,
    "served_seconds": 3,  # closed-loop served passes in the timed run
}


class BenchError(Exception):
    pass


def nproc():
    return os.cpu_count() or 1


def run_step(cmd, what, timeout):
    """Run one command; its stdout goes to stderr.  Raises on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"{what}: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} failed with exit code {proc.returncode}")


class Program:
    """The compiled emprof_perfbench; every subcommand prints one JSON line."""

    def __init__(self, path):
        self.path = path
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def __call__(self, sub, **flags):
        cmd = [self.path, sub]
        for key, value in flags.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{sub}: timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{sub} failed with exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def build(root):
    """Build EMPROF (libraries + emprof_served) and emprof_perfbench."""
    for needed in ("CMakeLists.txt", "src", "tools", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError(f"not an EMPROF source tree: {needed} missing")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    emprof = os.path.join(out, "emprof")
    bench = os.path.join(out, "perfbench")
    jobs = str(nproc())
    if not os.path.exists(os.path.join(emprof, "CMakeCache.txt")):
        run_step(["cmake", "-S", root, "-B", emprof,
                  "-DCMAKE_BUILD_TYPE=Release", "-DEMPROF_BUILD_TESTS=OFF",
                  "-DEMPROF_BUILD_BENCH=OFF", "-DEMPROF_BUILD_EXAMPLES=OFF"],
                 "configure EMPROF", timeout=600)
    run_step(["cmake", "--build", emprof, "-j", jobs, "--target",
              "emprof_served"], "build EMPROF", timeout=900)
    if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
        run_step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", bench,
                  "-DEMPROF_BUILD_DIR=" + emprof], "configure emprof_perfbench",
                 timeout=600)
    run_step(["cmake", "--build", bench, "-j", jobs], "build emprof_perfbench",
             timeout=900)
    return (Program(os.path.join(bench, "emprof_perfbench")),
            os.path.join(emprof, "tools", "emprof_served"))


def timed_setups(setup, repeats, reset=lambda: None):
    """Run setup() repeats times; each must give the same reference.

    reset() runs before each set-up, outside the timed span, and undoes
    the previous one."""
    times, refs = [], []
    for _ in range(repeats):
        reset()
        t0 = time.perf_counter()
        refs.append(setup())
        times.append(time.perf_counter() - t0)
    if any(r != refs[0] for r in refs):
        raise BenchError(f"set-up is not deterministic: {refs}")
    return statistics.median(times), refs[0]


# ---------------------------------------------------------------- batch


def run_batch(name, seed, seconds, trace, drv, work, trace_path):
    spec = BATCH[name]
    capture = os.path.join(work, "input.emcap")

    def setup():
        drv("synth", kind=spec["kind"], seed=seed, samples=BATCH_SAMPLES,
            out=capture)
        return drv("reference", capture=capture, mode=spec["mode"])["digest"]

    setup_s, digest = timed_setups(setup, 1 if trace else SETUP_REPEATS)
    job = {"capture": capture, "mode": spec["mode"], "digest": digest,
           "seconds": seconds}
    if trace:
        r = drv("trace-batch", trace_out=trace_path, **job)
        metrics = {k: v for k, v in r.items()
                   if k not in ("attempted", "failed", "reps")}
        return metrics, r["attempted"], r["failed"], {
            "traced_reps": r["reps"], "trace_file": trace_path}
    r = drv("analyze", **job)
    par, one = r["parallel_s"], r["single_s"]
    job.pop("seconds")
    peaks = [drv("peak", **job) for _ in range(PEAK_REPEATS)]
    metrics = {
        "setup_s": setup_s,
        "analyze_s": statistics.median(par),
        "analyze_x1_s": statistics.median(one),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in peaks),
    }
    return (metrics, r["attempted"] + len(peaks),
            r["failed"] + sum(p["failed"] for p in peaks),
            {"jobs_nproc": len(par), "jobs_x1": len(one)})


# ---------------------------------------------------------------- serve


class Daemon:
    """emprof_served on a unix socket in the work directory."""

    def __init__(self, served, work, endpoint, spool):
        self.served, self.endpoint = served, endpoint
        self.logfile = open(os.path.join(work, "served.log"), "ab")
        self.proc = subprocess.Popen(
            [served, "--listen", endpoint, "--spool-dir", spool],
            stdout=self.logfile, stderr=self.logfile)
        deadline = time.monotonic() + 10
        while True:
            probe = subprocess.run([served, "--healthz", endpoint],
                                   stdout=subprocess.DEVNULL,
                                   stderr=subprocess.DEVNULL)
            if probe.returncode == 0:
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("emprof_served did not come up")
            time.sleep(0.01)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for emprof_served")

    def scrape(self):
        proc = subprocess.run([self.served, "--scrape", self.endpoint],
                              stdout=subprocess.PIPE, text=True, timeout=30)
        counters = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].startswith("emprof.serve."):
                counters[parts[0][len("emprof.serve."):]] = float(parts[1])
        return counters

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.logfile.close()


def run_fleet(seed, seconds, trace, drv, served, work, trace_path):
    f = FLEET
    blobs = os.path.join(work, "uploads")
    refs = os.path.join(work, "refs.txt")
    endpoint = "unix:" + os.path.relpath(os.path.join(work, "sock"))
    fleet = {"dir": blobs, "count": f["uploads"], "refs": refs}
    daemon = None

    def reset():
        nonlocal daemon
        if daemon is not None:
            daemon.stop()
            daemon = None
        for path in (blobs, os.path.join(work, "spool")):
            shutil.rmtree(path, ignore_errors=True)
        os.makedirs(blobs)

    def setup():
        nonlocal daemon
        drv("synth", kind="fleet", seed=seed, samples=f["samples"],
            count=f["uploads"], out=blobs)
        drv("reference", **fleet)
        daemon = Daemon(served, work, endpoint, os.path.join(work, "spool"))
        with open(refs) as r:
            return r.read()

    try:
        setup_s, _ = timed_setups(setup, 1 if trace else SETUP_REPEATS,
                                  reset)
        if trace:
            gen_trace = os.path.join(work, "fleet.trace.json")
            comp_trace = os.path.join(work, "components.trace.json")
            r = drv("fleet", endpoint=endpoint, seed=seed, threads=nproc(),
                    trace_out=gen_trace, **fleet)
            c = drv("components", seed=seed,
                    spool_dir=os.path.join(work, "spool-components"),
                    trace_out=comp_trace, **fleet)
            counters = daemon.scrape()
            merge_traces([gen_trace, comp_trace], trace_path)
            metrics = {k: v for k, v in r.items() if "." in k}
            metrics.update({k: v for k, v in c.items() if "." in k})
            metrics.update({
                "serve.latency_p50_ms": r["latency_p50_ms"],
                "serve.latency_p99_ms": r["latency_p99_ms"],
                "serve.rejected": counters.get("sessions_rejected", 0.0),
                "serve.aborted": counters.get("sessions_aborted", 0.0),
                "serve.retry_after": counters.get("retry_after_sent", 0.0),
                "serve.spooled": counters.get("results_spooled", 0.0),
            })
            extra = {"window_p99_ms": r["window_p99_ms"],
                     "window_sessions": r["window_sessions"],
                     "window_beyond_p99": r["window_beyond_p99"],
                     "rungs": list(zip(r["rung_rates"], r["rung_p99_ms"],
                                       r["rung_pass"])),
                     "trace_file": trace_path}
            return metrics, r["attempted"] + c["attempted"], \
                r["failed"] + c["failed"], extra
        # Served passes: every Report checked, and the daemon's memory
        # peak taken with nproc sessions always in flight.
        served = drv("passes", endpoint=endpoint, seed=seed,
                     seconds=f["served_seconds"], **fleet)
        peak = daemon.peak_rss_mb()
        local = drv("local", seconds=max(1.0, seconds - f["served_seconds"]),
                    **fleet)
        metrics = {
            "setup_s": setup_s,
            "analyze_s": statistics.median(local["parallel_s"]),
            "analyze_x1_s": statistics.median(local["single_s"]),
            "peak_rss_mb": peak,
        }
        extra = {"served_pass_s": statistics.median(served["parallel_s"]),
                 "local_passes": len(local["parallel_s"])}
        return (metrics, served["attempted"] + local["attempted"],
                served["failed"] + local["failed"], extra)
    finally:
        if daemon is not None:
            daemon.stop()


def merge_traces(parts, out):
    events = []
    for part in parts:
        with open(part) as f:
            events += json.load(f)["traceEvents"]
    with open(out, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


# ---------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload}; one of {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    drv, served = build(root)
    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_path = os.path.join(
        ".bench_work", "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    try:
        if args.workload in BATCH:
            metrics, attempted, failed, extra = run_batch(
                args.workload, args.seed, args.seconds, args.trace, drv,
                work, trace_path)
        else:
            metrics, attempted, failed, extra = run_fleet(
                args.seed, args.seconds, args.trace, drv, served, work,
                trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A layer the workload does not exercise reads 0 (see README.md).
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{m['name']} {shown} {m['unit']}")
    print(f"error_rate {failed / max(attempted, 1):.6g} fraction")
    print(f"hardware_threads {nproc()}")
    print(f"seed {args.seed}")
    print(f"workload {args.workload} trace {args.trace}")
    for key, value in extra.items():
        print(f"{key} {value}")
    correct = attempted >= 1 and failed == 0 and all(
        v["value"] is not None and v["value"] == v["value"]
        for v in out.values())
    result = {"correct": correct, "attempted": int(attempted),
              "failed": int(failed), "metrics": out}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(dict(result, workload=args.workload,
                                    seed=args.seed, trace=args.trace)) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
