#!/usr/bin/env python3
"""Request-anatomy benchmark entry point.

Builds the benchmark package (this directory's CMakeLists.txt, which
compiles the repository's library sources) into .bench_build/anatomy,
then runs one workload:

    python3 anatomy/run.py --workload search-mix --seed 1 --seconds 10 --trace 0

Workloads: search-mix, transform-mix, serve-front, or all. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. `--selftest` runs every workload at a tiny size twice
and checks that the work counters repeat and that the seed changes the
corpus. Build output goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "anatomy")
RUN_TIMEOUT_S = 170


def build(env):
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env)
        except OSError as e:
            print(f"anatomy: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            print("anatomy: build failed", file=sys.stderr)
            return False
    return True


def commit_id():
    """The git commit when there is one, else a hash of the built sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for top in ("src", "tools", "anatomy"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()

    workdir = os.path.join(".bench_run", str(os.getpid()))
    # Compilers (the build's and the native check's) write temporaries to
    # TMPDIR; keep them inside the checkout too.
    tmpdir = os.path.join(ROOT, workdir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmpdir)
    try:
        return run(a, workdir, env)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)


def run(a, workdir, env):
    """Builds, then runs the benchmark binary; returns its exit code."""
    if not build(env):
        return 2
    cmd = [os.path.join(BUILD, "anatomy"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--corpus", os.path.join(HERE, "corpus"),
           "--serve-binary", os.path.join(BUILD, "irlt-serve"),
           "--workdir", workdir, "--commit", commit_id()]
    if a.selftest:
        cmd.append("--selftest")
    # Own process group, so a timeout also stops the front's worker
    # processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("anatomy: run timed out", file=sys.stderr)
        code = 3
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
