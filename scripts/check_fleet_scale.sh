#!/usr/bin/env bash
# Million-client scale gate.  Runs one 1,000,000-client fleet,
#
#   mosaiq fleet --fleet-size 1000000 --n 1 --query point --scheme server --think 0.05
#
# and fails unless the command exits 0, prints 1,000,000 answers, and
# peaks under 8 GB RSS (the child's ru_maxrss, read by python3's
# resource.getrusage(RUSAGE_CHILDREN)).  On a 4-core / 16 GB VM the run
# takes about 35 s and 3 GB, so it stays out of ctest, where it would
# slow and crowd a parallel `ctest -j`.
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

CLIENTS = 1_000_000
RSS_LIMIT_KB = 8 * 1024 * 1024

cmd = [sys.argv[1], "fleet", "--fleet-size", str(CLIENTS), "--n", "1", "--query", "point",
       "--scheme", "server", "--think", "0.05"]
start = time.monotonic()
run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
wall_s = time.monotonic() - start
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KB on Linux
sys.stdout.write(run.stdout)

# The result row starts with the client count; its last column is answers.
answers = None
for line in run.stdout.splitlines():
    fields = line.split()
    if len(fields) > 1 and fields[0] == str(CLIENTS):
        answers = int(fields[-1])

problems = []
if run.returncode != 0:
    problems.append(f"exit status {run.returncode}")
if answers != CLIENTS:
    problems.append(f"answers {answers}, expected {CLIENTS}")
if peak_kb >= RSS_LIMIT_KB:
    problems.append(f"peak RSS {peak_kb / 1024**2:.2f} GB, limit 8 GB")
summary = (f"{CLIENTS} clients, {answers} answers, peak RSS {peak_kb / 1024**2:.2f} GB, "
           f"{wall_s:.1f} s")
if problems:
    print("check_fleet_scale: FAILED (" + "; ".join(problems) + "): " + summary)
    sys.exit(1)
print("check_fleet_scale: ok: " + summary)
PY
