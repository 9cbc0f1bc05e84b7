#!/usr/bin/env python3
"""Builds and runs the CRAS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --selftest [--seed <n>]

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, an optimized build of the server's
sources) under .bench_build/; later calls rebuild only what changed. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. --all runs every workload with --trace 0 and prints
a table of the end-to-end metrics; --selftest confirms that every
correctness check catches a deliberately corrupted result. See
perfbench/README.md.
"""

import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

WORKLOADS = ("striped_vod", "hot_title_fanout", "zipf_churn")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cras_perfbench")
BINARY = os.path.join(BUILD, "cras_perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    """Strict parsing: every flag is known, takes one value, appears once."""
    modes = {"--all", "--selftest"}
    valued = {"--workload", "--seed", "--seconds", "--trace"}
    args, mode, i = {}, None, 0
    while i < len(argv):
        flag = argv[i]
        if flag in modes:
            if mode is not None:
                fail("give only one of --all and --selftest")
            mode = flag
            i += 1
            continue
        if flag not in valued:
            fail("unknown argument %r" % flag)
        if flag in args:
            fail("%s given twice" % flag)
        if i + 1 >= len(argv):
            fail("%s needs a value" % flag)
        args[flag] = argv[i + 1]
        i += 2
    if "--workload" in args and args["--workload"] not in WORKLOADS:
        fail("unknown workload %r (choose from %s)" % (args["--workload"], ", ".join(WORKLOADS)))
    if "--seed" in args and not re.fullmatch(r"[0-9]{1,19}", args["--seed"]):
        fail("malformed seed %r: want a decimal whole number" % args["--seed"])
    if "--seconds" in args and not (re.fullmatch(r"[0-9]{1,4}", args["--seconds"])
                                    and 1 <= int(args["--seconds"]) <= 3600):
        fail("--seconds wants a whole number from 1 to 3600, got %r" % args["--seconds"])
    if "--trace" in args and args["--trace"] not in ("0", "1"):
        fail("--trace wants 0 or 1, got %r" % args["--trace"])
    if mode == "--selftest" and set(args) - {"--seed"}:
        fail("--selftest takes only --seed")
    if mode == "--all" and set(args) - {"--seed", "--seconds"}:
        fail("--all takes only --seed and --seconds")
    if mode is None and set(args) != valued:
        fail("--workload, --seed, --seconds and --trace are all required")
    return mode, args


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cras.cc")):
        fail("no server sources under %s/src: run from the root of a full checkout" % ROOT, 1)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            run_step(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_step(["cmake", "--build", BUILD, "-j", jobs])


def run_step(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: %s" % " ".join(command), 1)


def run_binary(flags):
    """Runs the benchmark binary; returns its exit code and last stdout line."""
    result = subprocess.run([BINARY] + flags, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    return result.returncode, lines[-1] if lines else ""


def run_all(seed, seconds):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        code, last = run_binary(["--workload", workload, "--seed", seed,
                                 "--seconds", seconds, "--trace", "0"])
        if code != 0:
            fail("workload %s exited with %d" % (workload, code), 1)
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        rows.append((workload, result))
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print()
    print("%-18s %9s %7s %-7s  %s" % ("workload", "attempted", "failed", "correct", "metrics"))
    for workload, result in rows:
        metrics = "  ".join("%s=%.6g %s" % (name, m["value"], m["unit"])
                            for name, m in result["metrics"].items())
        print("%-18s %9d %7d %-7s  %s" % (workload, result["attempted"], result["failed"],
                                          str(result["correct"]).lower(), metrics))
    print(json.dumps(combined))
    return 0


def main():
    mode, args = parse_args(sys.argv[1:])
    build()
    seed = args.get("--seed", "1")
    if mode == "--selftest":
        return subprocess.run([BINARY, "--selftest", "--seed", seed]).returncode
    if mode == "--all":
        return run_all(seed, args.get("--seconds", "10"))
    flags = ["--workload", args["--workload"], "--seed", seed,
             "--seconds", args["--seconds"], "--trace", args["--trace"]]
    if args["--trace"] == "1":
        os.makedirs(SPANS, exist_ok=True)
        flags += ["--spans-out", os.path.join(SPANS, args["--workload"] + ".json")]
    code, _ = run_binary(flags)
    return code


if __name__ == "__main__":
    sys.exit(main())
