#!/usr/bin/env python3
"""Benchmark of the HOPE / HOPE+ pipeline (see BENCHMARK.json).

Run from the root of the repository:

    python3 pipebench/run.py --workload cora --seed 101 --seconds 30 --trace 0

It compiles the repository's `src/main/scala` together with `pipebench/src`
(cached by source hash under `.bench_build/pipebench`), runs one JVM with a
local Spark session, and prints as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. `--trace 1` reports the
per-layer metrics instead of the end-to-end ones and writes every span's
counters to `.bench_build/pipebench/traces/`.
"""
import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

from build import build, jvm_classpath

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "pipebench")
WORKLOADS = ("cora", "mind")
DEADLINE_S = 175  # a run must end within 180 s once built
JAVA_OPTS = [
    "-Xmx4g", "-Xss8m", "-XX:+UseG1GC",
    "-XX:-UsePerfData",  # no hsperfdata files outside the checkout
    "-Dspark.driver.host=127.0.0.1",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def steal_s():
    """CPU time stolen from this machine by its host, over all CPUs."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="generator seed (default: the catalog's)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = "catalog" if args.seed is None else str(args.seed)

    classes = build()
    t_start = time.monotonic()
    steal0 = steal_s()
    local_dir = os.path.join(OUT, "spark-local", str(os.getpid()))
    os.makedirs(local_dir, exist_ok=True)
    trace_file = os.path.join(OUT, "traces", f"{args.workload}-seed{seed}.json")
    cmd = (["java"] + JAVA_OPTS +
           [f"-Djava.io.tmpdir={local_dir}", f"-Dspark.local.dir={local_dir}",
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
            "-cp", jvm_classpath(classes), "repro.pipebench.Main",
            "--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--cores", str(cores())] +
           ([] if args.seed is None else ["--seed", seed]) +
           (["--trace-file", trace_file] if args.trace else []))
    log_path = os.path.join(OUT, "last-run.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        lines = []
        try:
            deadline = DEADLINE_S - (time.monotonic() - t_start)
            out, _ = proc.communicate(timeout=max(deadline, 1))
            lines = out.splitlines()
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit(f"benchmark timed out after {DEADLINE_S} s (log: {log_path})")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            shutil.rmtree(local_dir, ignore_errors=True)
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    print(f"run {time.monotonic() - t_start:.1f} s, of which CPU steal {steal_s() - steal0:.1f} s")
    results = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or not results:
        sys.stderr.write(open(log_path).read()[-4000:])
        sys.exit(f"benchmark JVM exited with {proc.returncode} (log: {log_path})")
    result = json.loads(results[-1][len("RESULT "):])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    bad = [m["name"] for m in wanted
           if not isinstance(result["metrics"].get(m["name"], {}).get("value"), (int, float))]
    if bad:
        sys.exit(f"metrics missing from the result: {bad}")
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    digests = dict(re.findall(r"^digest (\w+): (\S+)", "\n".join(lines), re.M))
    record_history(os.path.dirname(classes), args.workload, seed, result, digests,
                   trace_file if args.trace else None)
    print(json.dumps(result))


def record_history(build_dir, workload, seed, result, digests, trace_file):
    """Compare this run with earlier runs of the same build and workload: its
    digests with those of earlier runs of the same seed, and, for a traced
    run, its pipeline time with the median of the untraced runs (the tracing
    overhead, which is also added to the trace file)."""
    path = os.path.join(build_dir, f"history-{workload}.json")
    hist = json.load(open(path)) if os.path.exists(path) else {"untraced_pipeline_s": [], "digests": {}}
    before = hist["digests"].setdefault(seed, [])
    agree = all(d == digests for d in before)
    print(f"digests agree with {len(before)} earlier run(s) of seed {seed}: {agree}")
    before.append(digests)
    untraced = hist["untraced_pipeline_s"]
    if trace_file is None:
        untraced.append(result["metrics"]["pipeline_s"]["value"])
    else:
        traced = result["metrics"]["pipeline.wall_s"]["value"]
        with open(trace_file) as f:
            trace = json.load(f)
        if untraced:
            trace["tracing_overhead_s"] = traced - statistics.median(untraced)
            print(f"tracing overhead: {trace['tracing_overhead_s']:.3f} s (traced pipeline "
                  f"{traced:.3f} s, median of {len(untraced)} untraced runs)")
        else:
            print("tracing overhead: no untraced run of this workload recorded yet")
        with open(trace_file, "w") as f:
            json.dump(trace, f, indent=1)
        print(f"trace file: {os.path.relpath(trace_file, ROOT)}")
    with open(path, "w") as f:
        json.dump(hist, f)


if __name__ == "__main__":
    main()
