#!/usr/bin/env bash
# The full local gate, in dependency order:
#   1. configure + build (default preset, build/)
#   2. ctest       — unit/integration suites + the lint gates + header check
#   3. mosaiq-lint — full matrix over src/ tools/ bench/ tests/ for a
#                    readable report, plus a SARIF artifact in
#                    build/lint.sarif and the --json/--sarif schema gate
#   4. header self-containment (scripts/check_headers.sh)
#   5. docs <-> code consistency, the bench smoke gate, clang-tidy
#   6. fleet scale gate (scripts/check_fleet_scale.sh: 1M clients, then
#      100k under churn; under 20 s and 1 GB in Release, so it runs here
#      rather than under ctest -j)
#   7. perfbench smoke gate (scripts/check_perfbench.sh: builds the
#      workload benchmark's own Release tree, runs every workload for
#      1 s and requires every output check to pass; ~11 s once built)
#   8. [--san]     ASan+UBSan preset: full rebuild + full ctest
#   9. [--san]     TSan preset: rebuild + the threaded suites only
#
# Usage: scripts/check.sh [--san]
set -euo pipefail
cd "$(dirname "$0")/.."

san=0
[ "${1:-}" = "--san" ] && san=1

echo "==> configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j"$(nproc)"

echo "==> ctest (default preset)"
ctest --preset default -j"$(nproc)"

echo "==> mosaiq-lint over src/ tools/ bench/ tests/ (full matrix, --threads)"
# One invocation so cross-file annotations (header -> cpp) are honored;
# tests/lint_fixtures seeds violations on purpose, so tests/ contributes
# its top-level suites only.  A SARIF artifact (findings + fix-it data)
# lands in build/lint.sarif for CI upload regardless of findings; the
# plain run is the gate.  --threads output is byte-identical to serial
# (lint_threads_deterministic gates that), so parallelism is free here.
./build/tools/lint/mosaiq-lint --sarif --threads "$(nproc)" src tools bench \
  $(find tests -maxdepth 1 \( -name '*.cpp' -o -name '*.hpp' \)) \
  > build/lint.sarif || true
./build/tools/lint/mosaiq-lint --threads "$(nproc)" src tools bench \
  $(find tests -maxdepth 1 \( -name '*.cpp' -o -name '*.hpp' \))

echo "==> mosaiq-lint --json/--sarif schema stability"
scripts/check_lint_schema.sh ./build/tools/lint/mosaiq-lint tests/lint_fixtures

echo "==> mosaiq-lint --fix idempotency"
scripts/check_lint_fix.sh ./build/tools/lint/mosaiq-lint tests/lint_fixtures/fixable

echo "==> header self-containment"
scripts/check_headers.sh

echo "==> docs <-> code consistency"
scripts/check_docs.sh

echo "==> mosaiq-bench smoke + regression gate vs BENCH_baseline.json"
# Quick profile (3 reps, 1 warmup), then a deliberately generous gate:
# 8.0 = new median may be up to 9x the committed baseline before the
# gate trips.  The baseline was recorded on a different machine, so this
# only catches order-of-magnitude pathologies (accidental O(n^2),
# debug-build artifacts); tight tracking is same-host --compare runs.
./build/tools/bench_runner/mosaiq-bench --quick --out build/BENCH_smoke.json
./build/tools/bench_runner/mosaiq-bench --compare BENCH_baseline.json \
  build/BENCH_smoke.json --tolerance 8.0

echo "==> clang-tidy over src/ (skips itself when not installed)"
scripts/check_clang_tidy.sh build || [ $? -eq 77 ]

echo "==> fleet scale gate (1M clients; 100k under churn)"
scripts/check_fleet_scale.sh build/tools/mosaiq

echo "==> perfbench smoke gate (every workload for 1 s, output checks)"
scripts/check_perfbench.sh

if [ "$san" = 1 ]; then
  echo "==> ASan+UBSan: full suite"
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j"$(nproc)"
  ctest --preset asan-ubsan -j"$(nproc)"

  echo "==> TSan: threaded suites (test_parallel, test_perf, test_fleet, test_scheduler, test_obs, test_fault)"
  cmake --preset tsan
  cmake --build --preset tsan -j"$(nproc)" \
    --target test_parallel test_perf test_fleet test_scheduler test_obs test_fault
  ctest --preset tsan -j"$(nproc)"
fi

echo "check.sh: all gates passed"
