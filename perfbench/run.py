#!/usr/bin/env python3
"""Build and run one benchmark run of the prescount repository.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 20 --trace 0

The script builds the serving binaries (cmd/prescountd, cmd/prescountrouter)
and the harness (this directory, a Go module of its own) into .bench_build/,
with every Go cache inside the checkout, then runs the harness once in a
fresh process. The harness prints the run's result as the last line of
standard output. Runs of one seed and length on the same sources must
produce the same output: the first untraced run leaves a record under
.bench_build/records/, and every later one is compared with it.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("batch-cold", "eval-sweep", "serve-hot", "serve-sweep")
# A run must end within 180 s; the harness gets what the build leaves.
RUN_BUDGET_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOMODCACHE=str(BUILD / "gomodcache"),
        GOPATH=str(BUILD / "gopath"),
        GOTMPDIR=str(BUILD / "tmp"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    return env


def build(env):
    bin_dir = BUILD / "bin"
    bin_dir.mkdir(parents=True, exist_ok=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    steps = [
        (ROOT, ["go", "build", "-o", str(bin_dir) + os.sep, "./cmd/prescountd", "./cmd/prescountrouter"]),
        (BENCH, ["go", "build", "-o", str(bin_dir / "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return bin_dir


def source_hash():
    """Digest of every file the Go build reads, to key determinism records."""
    h = hashlib.sha256()
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in filenames:
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                files.append(Path(dirpath) / name)
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not (ROOT / "go.mod").is_file() or not (ROOT / "cmd" / "prescountd").is_dir():
        sys.stderr.write("perfbench: %s is not a prescount checkout (go.mod or cmd/prescountd missing)\n" % ROOT)
        return 2
    env = go_env()
    bin_dir = build(env)
    tag = "%s-seed%d" % (args.workload, args.seed)
    cmd = [
        str(bin_dir / "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-bin", str(bin_dir),
        "-trace-out", str(BUILD / "traces" / (tag + ".jsonl.gz")),
        "-record", str(BUILD / "records" / ("%s-%s-%gs.json" % (source_hash(), tag, args.seconds))),
    ]
    # The harness and the serving processes it starts form one process
    # group, so a timeout, or a process the harness failed to stop, can be
    # killed with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(10.0, RUN_BUDGET_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 1
    kill_group(proc.pid)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.stderr.write("perfbench: harness exited with %d\n" % proc.returncode)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
