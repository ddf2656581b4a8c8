#!/usr/bin/env bash
# perfbench smoke gate.  perfbench/ (the workload benchmark that
# BENCHMARK.json declares) is a CMake project of its own over src/, so
# neither the default build nor ctest compiles it: a src/ change that
# breaks its build or its output checks would otherwise show up only
# when the benchmark runs.  This runs every workload for one second:
#
#   python3 perfbench/run.py --workload all --seconds 1 --trace 0
#
# and fails unless that exits 0, its last line is a JSON result with
# "correct": true and "failed": 0, and every workload prints the pinned
# seed-1 sim_fingerprint below.  run.py itself exits 0 when output
# checks fail (it reports them in that line), so the exit status alone
# is not enough; and the output checks pass for many simulated numbers,
# so a moved bit shows only in the fingerprint.  The first run builds
# perfbench's Release tree under $CARGO_TARGET_DIR/perfbench (default
# .bench_build/perfbench); after that the gate takes about 11 s on a
# 4-core VM.
#
# The pins are the digests of every simulated output field.  A change
# that moves simulated outputs on purpose updates them here, in the
# same commit, and says why.
#
# Usage: scripts/check_perfbench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! python3 perfbench/run.py --workload all --seconds 1 --trace 0 | tee "$out"; then
  echo "check_perfbench: FAILED (perfbench/run.py exited non-zero)"
  exit 1
fi

python3 - "$out" <<'PY'
import json
import re
import sys

# Seed-1 sim_fingerprint of each workload.
PINS = {
    "paper_sweep": "f621d706565e5829",
    "fleet_100k": "b812fd673f6323c6",
    "fleet_churn": "ed985d56620e895e",
}

lines = open(sys.argv[1]).read().splitlines()
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    print("check_perfbench: FAILED (the last line is not a JSON result)")
    sys.exit(1)
if result.get("correct") is not True or result.get("failed") != 0:
    print(f"check_perfbench: FAILED (correct={json.dumps(result.get('correct'))}, "
          f"failed={result.get('failed')} of {result.get('attempted')} checks)")
    sys.exit(1)

printed = {}
for line in lines:
    m = re.fullmatch(r"sim_fingerprint (\S+) seed=1 ([0-9a-f]+)", line.strip())
    if m:
        printed[m.group(1)] = m.group(2)
bad = False
for workload, pin in PINS.items():
    got = printed.get(workload)
    if got != pin:
        print(f"check_perfbench: FAILED ({workload}: sim_fingerprint {got or 'missing'}, "
              f"pinned {pin})")
        bad = True
if bad:
    sys.exit(1)
print(f"check_perfbench: ok: {result['attempted']} checks, none failed; "
      f"{len(PINS)} sim_fingerprints match their pins")
PY
