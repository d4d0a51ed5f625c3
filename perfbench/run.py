#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload loop|serve|fleet|all --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest      # span arithmetic + metric names
    python3 perfbench/run.py --determinism   # guards at width 1 vs nproc

Run from the repository root. The first call builds the library and
the driver (Release) under .bench_build/perfbench; later calls only
re-check the build. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Build
output and the driver's report lines before it go to standard error
and standard output respectively.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SELFTEST = os.path.join(BUILD_DIR, "perfbench_selftest")
WORKLOADS = ("loop", "serve", "fleet")
# The driver's own limit is the run's budget plus its minimum episodes;
# this only stops a hung run inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
MAX_WIDTH = 4


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler and library temp files in the checkout
    return env


def build():
    jobs = str(max(1, min(MAX_WIDTH, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_driver", "perfbench_selftest"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=child_env(), cwd=ROOT)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def driver_metrics():
    r = subprocess.run([DRIVER, "--list-metrics"], capture_output=True,
                       text=True, timeout=30)
    if r.returncode != 0:
        fail("driver --list-metrics failed")
    e2e, layers = {}, {}
    for line in r.stdout.splitlines():
        kind, name, unit = line.split()
        (e2e if kind == "end_to_end" else layers)[name] = unit
    return e2e, layers


def check_metric_names():
    """The driver prints exactly the metrics BENCHMARK.json declares."""
    if driver_metrics() != expected_metrics():
        fail("driver metric names/units differ from BENCHMARK.json")


def run_driver(extra, timeout=RUN_TIMEOUT_S):
    workdir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    cmd = [DRIVER, "--workdir", workdir, "--git-rev", git_rev()] + extra
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(extra))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(r.stderr)
    return r


def selftest():
    r = subprocess.run([SELFTEST], capture_output=True, text=True, timeout=60)
    sys.stderr.write(r.stdout)
    if r.returncode != 0:
        fail("span arithmetic self-test failed")
    check_metric_names()


def determinism():
    """Each workload's deterministic guards at width 1 and width nproc."""
    wide = str(max(1, min(MAX_WIDTH, os.cpu_count() or 1)))
    ok = True
    for w in WORKLOADS:
        outs = []
        for width in ("1", wide):
            r = run_driver(["--workload", w, "--seed", "1", "--seconds", "1",
                            "--trace", "0", "--threads", width, "--guards"])
            guards = [l for l in r.stdout.splitlines() if l.startswith("# guard")]
            if r.returncode != 0 or not guards:
                fail("guard run failed for %s at width %s" % (w, width))
            outs.append(guards)
        same = outs[0] == outs[1]
        ok = ok and same
        print("%s: width 1 vs %s %s" % (w, wide, "identical" if same else "DIFFER"))
        for line in outs[0]:
            print("  " + line[2:])
        if not same:
            for a, b in zip(*outs):
                if a != b:
                    print("  differs: %s | %s" % (a, b))
    print(json.dumps({"deterministic": ok}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--determinism", action="store_true")
    a = p.parse_args()
    if not (a.selftest or a.determinism or a.workload):
        p.error("--workload is required")

    build()
    selftest()
    if a.selftest:
        print(json.dumps({"selftest": "ok"}))
        return 0
    if a.determinism:
        return determinism()

    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    results = {w: run_workload(w, a) for w in workloads}
    if a.workload != "all":
        print(json.dumps(results[a.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def run_workload(workload, a):
    """Run one workload; print its report lines, return its result."""
    r = run_driver(["--workload", workload, "--seed", str(a.seed),
                    "--seconds", str(a.seconds), "--trace", str(a.trace)])
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("driver failed (exit %d)" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result")
    e2e, layers = expected_metrics()
    want = layers if a.trace else e2e
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        result["correct"] = False
        lines.insert(-1, "# FAILED printed metrics differ from BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    return result


if __name__ == "__main__":
    sys.exit(main())
