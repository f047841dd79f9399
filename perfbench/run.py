#!/usr/bin/env python3
"""Build and run the end-to-end out-of-core solver benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spmv-ooc --seed 1 --seconds 20 --trace 0

Builds the dooc library, the doocd daemon, the benchmark driver and the
driver's unit tests from source with CMake (under $CARGO_TARGET_DIR, default
.bench_build), runs the unit tests, then runs one workload. The driver runs in
its own session; every process left in that session when it ends (doocd
daemons included) is killed and waited for before this script exits. The last
line of stdout is the result JSON.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("spmv-ooc", "lanczos-ci", "spmv-wire")
RUN_TIMEOUT_S = 170.0


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build; returns False when either step fails."""
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # re-configure next time
            return False
    cmd = ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def session_pids(sid):
    """Pids of live processes in session `sid` (zombies excluded)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def reap_session(sid):
    """SIGKILL every process of the session and wait until all are gone."""
    deadline = time.monotonic() + 10.0
    while True:
        pids = session_pids(sid)
        if not pids:
            return True
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.abspath(build_dir)
    if not build(root, build_dir):
        log("build failed")
        return 1
    unit = subprocess.run([os.path.join(build_dir, "perfbench_ledger_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if unit.returncode != 0:
        log("driver unit tests failed")
        return 1

    # Relative to the checkout root so Unix socket paths stay short.
    workdir = os.path.join(".bench_build", "run", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench_driver"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={workdir}",
           f"--trace-out={os.path.join(build_dir, 'trace-' + args.workload + '.json')}"]
    env = dict(os.environ, DOOC_DOOCD=os.path.join(build_dir, "doocd"))
    for var in ("DOOC_TRACE", "DOOC_CODEC", "DOOC_TELEMETRY", "DOOC_FAULTS",
                "DOOC_REPLICATION", "DOOC_JOBS"):
        env.pop(var, None)
    # stdout goes to a file, not a pipe: daemons inherit the descriptor, and
    # a pipe they hold open would hide the driver's exit from a reader.
    code = 1
    with tempfile.TemporaryFile("w+", dir=build_dir) as out_file:
        proc = subprocess.Popen(cmd, stdout=out_file, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"driver exceeded {RUN_TIMEOUT_S:.0f} s")
        finally:
            if not reap_session(proc.pid):
                log("processes of the driver's session survived SIGKILL")
                code = code or 1
            proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)
        out_file.seek(0)
        out = out_file.read()

    lines = [ln for ln in out.splitlines() if ln.strip()]
    if lines and lines[-1].startswith('{"correct"'):
        # A result that failed verification is still printed, with
        # "correct": false, and the exit code says so.
        print("\n".join(lines), flush=True)
    else:
        print("\n".join(lines), file=sys.stderr)
        code = code or 1
    if code != 0:
        log(f"driver failed (exit {code})")
        return code if code > 0 else 1  # killed by a signal
    return 0


if __name__ == "__main__":
    sys.exit(main())
