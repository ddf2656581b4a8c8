#!/usr/bin/env bash
# Fleet scale gate.  Two runs:
#
#   1. A million clients, no faults:
#        mosaiq fleet --fleet-size 1000000 --n 1 --query point --scheme server --think 0.05
#      Fails unless it exits 0, prints 1,000,000 answers, and peaks under
#      2 GB RSS (the child's ru_maxrss, read by python3's
#      resource.getrusage(RUSAGE_CHILDREN)).  On a 4-core / 16 GB VM it
#      takes about 12 s and 0.8 GB (Release).
#   2. 100,000 clients under churn with replication, which exercises the
#      reassignment path:
#        mosaiq fleet --fleet-size 100000 --n 2 --query point --churn-rate 0.02
#                     --replication 2 --fleet-battery --burst-loss 0.05
#      Fails unless it exits 0, prints a result row for 100000 clients,
#      and finishes within 60 s.  It takes 2–3 s on the same VM.  A
#      survivor search that scanned every client took 42 s at 40,000
#      clients.
#
# Together they take under 20 s and 1 GB, so they stay out of
# ctest, where they would slow and crowd a parallel `ctest -j`.
#
# Usage: scripts/check_fleet_scale.sh [path/to/mosaiq]
#        (default: build/tools/mosaiq from the default preset)
set -euo pipefail
cd "$(dirname "$0")/.."

mosaiq=${1:-build/tools/mosaiq}
if [ ! -x "$mosaiq" ]; then
  echo "check_fleet_scale: $mosaiq not found; build it first (cmake --build --preset default)"
  exit 1
fi

python3 - "$mosaiq" <<'PY'
import resource
import subprocess
import sys
import time

MOSAIQ = sys.argv[1]
RSS_LIMIT_KB = 2 * 1024 * 1024
CHURN_LIMIT_S = 60.0


def run(clients, *flags):
    """Runs one fleet; returns (exit status, answers or None, wall seconds)."""
    cmd = [MOSAIQ, "fleet", "--fleet-size", str(clients), *flags]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall_s = time.monotonic() - start
    sys.stdout.write(proc.stdout)
    # The result row starts with the client count; its seventh column
    # is answers (the robustness columns follow it).
    answers = None
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) > 6 and fields[0] == str(clients):
            answers = int(fields[6])
    return proc.returncode, answers, wall_s


problems = []

# 1. A million clients, no faults.
CLIENTS = 1_000_000
status, answers, wall_s = run(CLIENTS, "--n", "1", "--query", "point", "--scheme", "server",
                              "--think", "0.05")
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KB on Linux
if status != 0:
    problems.append(f"{CLIENTS} clients: exit status {status}")
if answers != CLIENTS:
    problems.append(f"{CLIENTS} clients: answers {answers}, expected {CLIENTS}")
if peak_kb >= RSS_LIMIT_KB:
    problems.append(f"{CLIENTS} clients: peak RSS {peak_kb / 1024**2:.2f} GB, limit 2 GB")
summary = [f"{CLIENTS} clients, {answers} answers, peak RSS {peak_kb / 1024**2:.2f} GB, "
           f"{wall_s:.1f} s"]

# 2. 100,000 clients under churn, replication 2, batteries and a lossy link.
CHURN_CLIENTS = 100_000
status, answers, wall_s = run(CHURN_CLIENTS, "--n", "2", "--query", "point",
                              "--churn-rate", "0.02", "--replication", "2", "--fleet-battery",
                              "--burst-loss", "0.05")
if status != 0:
    problems.append(f"{CHURN_CLIENTS} churn clients: exit status {status}")
if answers is None:
    problems.append(f"{CHURN_CLIENTS} churn clients: no result row")
if wall_s > CHURN_LIMIT_S:
    problems.append(f"{CHURN_CLIENTS} churn clients: {wall_s:.1f} s, limit {CHURN_LIMIT_S:.0f} s")
summary.append(f"{CHURN_CLIENTS} churn clients, {answers} answers, {wall_s:.1f} s")

if problems:
    print("check_fleet_scale: FAILED (" + "; ".join(problems) + "): " + "; ".join(summary))
    sys.exit(1)
print("check_fleet_scale: ok: " + "; ".join(summary))
PY
