#!/usr/bin/env python3
"""Build and run the DICE benchmark for one workload.

    python3 perfbench/run.py --workload <dice_read|dice_write|alloy_read|fig10>
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
simulator plus the benchmark (perfbench/CMakeLists.txt) into
.bench_build/perfbench and runs the decorator self-test once per build.
Every run pins the DICE_* environment, runs bin/dice_perfbench, and
forwards its output; the last stdout line is the JSON result
{correct, attempted, failed, metrics}. Traced runs (--trace 1) also
write their spans to .bench_build/spans/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out, err


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", str(jobs()), "--target",
             "dice_perfbench", "perfbench_selftest"],
        ]
        for step in steps:
            code, _, _ = run_group(step, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s)" % " ".join(step[:2]))


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("DICE_")}
    env["DICE_BENCH_NO_CACHE"] = "1"
    env["DICE_BENCH_JOBS"] = str(jobs())
    env["DICE_LOG_LEVEL"] = "quiet"
    return env


def selftest_ok(env):
    """Run the decorator self-test once per build of its binary."""
    binary = os.path.join(BUILD, "perfbench_selftest")
    stamp = os.path.join(BUILD, "selftest.result")
    if (os.path.exists(stamp)
            and os.path.getmtime(stamp) >= os.path.getmtime(binary)):
        with open(stamp) as f:
            return f.read().strip() == "ok"
    code, out, _ = run_group([binary], RUN_TIMEOUT_S, env=env, cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    if code != 0:
        sys.stdout.write(out)
    with open(stamp, "w") as f:
        f.write("ok\n" if code == 0 else "fail\n")
    return code == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["dice_read", "dice_write", "alloy_read", "fig10"])
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seed < 0:
        fail("--seed must be non-negative")

    build()
    env = pinned_env()
    selftest = selftest_ok(env)
    print("selftest " + ("passed" if selftest else "FAILED"))

    cmd = [os.path.join(BUILD, "dice_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--digests", os.path.join(HERE, "expected_digests.txt")]
    if a.trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            SPANS, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    code, out, err = run_group(cmd, RUN_TIMEOUT_S, env=env, cwd=ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("dice_perfbench exited with %d" % code)
    result = json.loads(lines[-1])
    result["correct"] = bool(result["correct"]) and selftest
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
