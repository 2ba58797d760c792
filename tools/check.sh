#!/usr/bin/env bash
# Full static + dynamic gate for MetaComm. Run from the repo root:
#
#   tools/check.sh
#
# Stages:
#   0. metalint: the repo's own concurrency/robustness linter, built
#      straight from tools/metalint.cc with no other dependencies so
#      it gates even a tree that doesn't compile. The real tree must
#      scan clean; every file in tools/metalint_fixtures/ must be
#      flagged (the linter's own negative corpus).
#   1. Clang thread-safety-analysis build (-Wthread-safety plus
#      -Wthread-safety-beta for ACQUIRED_BEFORE ordering) — skipped
#      with a notice when clang++ is not installed; the annotations
#      compile as no-ops elsewhere.
#   2. Regular build + full tier-1 ctest suite, with the runtime
#      lock-order validator pinned on (-DMETACOMM_LOCKDEP=ON) so every
#      threaded suite runs with acquisition-order checking live.
#   2b. lockdep validator self-test: the seeded-inversion death tests
#       (lockdep_test) run explicitly and must prove a deliberate
#       A→B/B→A inversion aborts with both acquisition stacks.
#   3. ThreadSanitizer build and run of the concurrency tests
#      (threaded_test, parallel_um_test, um_golden_test — the golden
#      pins of the propagation pipeline, which every update crosses —
#      snapshot_stress_test,
#      wire_test — the epoll socket server under adversarial byte
#      patterns and concurrent connections — and lexpress_exec_test,
#      whose shared-Mapping/per-thread-Vm section proves the lexpress
#      fast path shares no mutable state).
#   3b. Fault-injection stress under TSan: fault_tolerance_test (the
#       breaker/repair end-to-end suite, including the threaded
#       Stop-vs-repair-worker shutdown race) and the randomized
#       FaultRecoveryPropertyTest seeds.
#   3c. Kill–restart convergence: tools/kill_restart_harness SIGKILLs
#       a real metacomm_serve mid-write-storm (bounded iterations for
#       CI) and proves restart recovery loses no acknowledged update.
#   4. lexpress_check over the generated mappings and every example
#      mapping file (defects.lex is the linter's own fixture and is
#      expected to FAIL; it is checked for non-zero exit).
#   5. clang-tidy over src/, tools/ and bench/ — skipped when absent.
#   6. Bench smoke: one quick pass of bench_batching with --json and a
#      parse of the emitted BENCH_batching.json.
#   6b. Wire bench smoke: bench_wire's 100-connection point (real
#       sockets end to end) with --json, parsing BENCH_wire.json.
#   6c. lexpress bench smoke: bench_lexpress's MapRecord and
#       steady-state Translate points (fast and reference pipelines)
#       with --json, parsing BENCH_lexpress.json.
#   6d. Durability bench smoke: bench_durability's WAL-off vs
#       batch-fsync single-writer points with --json, parsing
#       BENCH_durability.json.
#   7. Bench regression compare: quick reruns diffed against the
#      committed BENCH_*.json baselines (>20% slowdowns flagged).
#      Non-fatal — smoke-length runs are too noisy to gate on.
set -u

cd "$(dirname "$0")/.."
failures=0

note()  { printf '\n== %s ==\n' "$*"; }
fail()  { printf 'FAIL: %s\n' "$*"; failures=$((failures + 1)); }

jobs="$(nproc 2>/dev/null || echo 4)"

# -- 0. metalint ------------------------------------------------------
# Built directly (standard library only, by design) so this stage
# works even when the tree itself is broken.
note "metalint"
mkdir -p build-metalint
if c++ -std=c++20 -O2 -o build-metalint/metalint tools/metalint.cc; then
  build-metalint/metalint src tools bench tests \
    || fail "metalint findings in the tree"
  for fixture in tools/metalint_fixtures/*.cc; do
    if build-metalint/metalint "$fixture" >/dev/null; then
      fail "metalint missed the seeded defects in $fixture"
    else
      echo "$fixture: flagged as expected"
    fi
  done
else
  fail "metalint build"
fi

# -- 1. Clang thread-safety analysis ---------------------------------
note "clang -Wthread-safety"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . \
        -DCMAKE_CXX_COMPILER=clang++ \
        -DMETACOMM_THREAD_SAFETY_ANALYSIS=ON >/dev/null \
    && cmake --build build-tsa -j "$jobs" \
    || fail "thread-safety-analysis build"
else
  echo "clang++ not installed; skipping (annotations are no-ops under gcc)"
fi

# -- 2. Tier-1 build + tests (lockdep pinned on) ---------------------
note "tier-1 build + ctest (METACOMM_LOCKDEP=ON)"
cmake -B build -S . -DMETACOMM_LOCKDEP=ON >/dev/null \
  && cmake --build build -j "$jobs" \
  && ctest --test-dir build --output-on-failure -j "$jobs" \
  || fail "tier-1 tests"

# -- 2b. lockdep validator self-test ---------------------------------
note "lockdep seeded-inversion death tests"
if [ -x build/tests/lockdep_test ]; then
  ./build/tests/lockdep_test || fail "lockdep_test"
else
  fail "lockdep_test not built"
fi

# -- 3. TSan concurrency tests ---------------------------------------
note "ThreadSanitizer: threaded_test + parallel_um_test + um_golden_test + snapshot_stress_test + wire_test + lexpress_exec_test"
if cmake -B build-tsan -S . -DMETACOMM_SANITIZE=thread >/dev/null \
   && cmake --build build-tsan -j "$jobs" \
        --target threaded_test parallel_um_test um_golden_test \
                 snapshot_stress_test wire_test lexpress_exec_test; then
  ./build-tsan/tests/threaded_test    || fail "threaded_test under TSan"
  ./build-tsan/tests/parallel_um_test || fail "parallel_um_test under TSan"
  ./build-tsan/tests/um_golden_test   || fail "um_golden_test under TSan"
  ./build-tsan/tests/snapshot_stress_test \
    || fail "snapshot_stress_test under TSan"
  ./build-tsan/tests/wire_test || fail "wire_test under TSan"
  ./build-tsan/tests/lexpress_exec_test \
    || fail "lexpress_exec_test under TSan"
else
  fail "TSan build"
fi

# -- 3b. Fault-injection stress under TSan ---------------------------
note "ThreadSanitizer: fault-injection stress"
if cmake --build build-tsan -j "$jobs" \
     --target fault_tolerance_test consistency_property_test; then
  ./build-tsan/tests/fault_tolerance_test \
    || fail "fault_tolerance_test under TSan"
  ./build-tsan/tests/consistency_property_test \
      --gtest_filter='FaultSeeds/*' \
    || fail "FaultRecoveryPropertyTest under TSan"
else
  fail "TSan fault-stress build"
fi

# -- 3c. Kill–restart convergence ------------------------------------
note "kill_restart_harness (3 SIGKILLs mid-storm, zero acked-but-lost)"
if [ -x build/tools/kill_restart_harness ] \
   && [ -x build/tools/metacomm_serve ]; then
  kr_dir="${TMPDIR:-/tmp}/metacomm_check_kill_restart.$$"
  if ./build/tools/kill_restart_harness \
       --serve=build/tools/metacomm_serve \
       --data-dir="$kr_dir" \
       --iterations=3 --threads=4 --min-storm-ms=100 --max-storm-ms=400; then
    echo "kill_restart_harness: PASSED"
  else
    fail "kill_restart_harness"
  fi
  rm -rf "$kr_dir"
else
  fail "kill_restart_harness or metacomm_serve not built"
fi

# -- 4. lexpress check ------------------------------------------------
note "lexpress_check"
check=./build/tools/lexpress_check
if [ -x "$check" ]; then
  "$check" --builtin-schemas --gen -v \
    || fail "generated mappings are not clean"
  for lex in examples/mappings/*.lex; do
    case "$lex" in
      *defects.lex)
        # The seeded-defect fixture must trip the linter.
        if "$check" --builtin-schemas \
             --schema hr=EmployeeId,FullName,JobTitle \
             --schema crm=AccountId,ContactName,Role \
             "$lex" 2>/dev/null; then
          fail "$lex should produce errors and did not"
        else
          echo "$lex: defects flagged as expected"
        fi
        ;;
      *)
        "$check" --builtin-schemas -v "$lex" || fail "$lex"
        ;;
    esac
  done
else
  fail "lexpress_check not built"
fi

# -- 5. clang-tidy (optional) ----------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1 && command -v run-clang-tidy >/dev/null 2>&1; then
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  run-clang-tidy -p build -quiet "src/.*" "tools/.*" "bench/.*" \
    || fail "clang-tidy"
else
  echo "clang-tidy not installed; skipping (.clang-tidy documents the profile)"
fi

# -- 6. Bench smoke ---------------------------------------------------
note "bench smoke (--json)"
if [ -x build/bench/bench_batching ]; then
  rm -f BENCH_batching.json
  if ./build/bench/bench_batching --json --benchmark_min_time=0.01 \
       --benchmark_filter='batch:(1|16)/' >/dev/null; then
    if python3 -c "import json; json.load(open('BENCH_batching.json'))" \
         2>/dev/null; then
      echo "BENCH_batching.json: valid JSON"
    else
      fail "BENCH_batching.json missing or unparsable"
    fi
  else
    fail "bench_batching smoke run"
  fi
else
  fail "bench_batching not built"
fi

# -- 6b. Wire bench smoke ---------------------------------------------
note "bench_wire smoke (100-connection point, --json)"
if [ -x build/bench/bench_wire ]; then
  rm -f BENCH_wire.json
  if ./build/bench/bench_wire --json --benchmark_min_time=0.01 \
       --benchmark_filter='/100/' >/dev/null; then
    if python3 -c "import json; json.load(open('BENCH_wire.json'))" \
         2>/dev/null; then
      echo "BENCH_wire.json: valid JSON"
    else
      fail "BENCH_wire.json missing or unparsable"
    fi
  else
    fail "bench_wire smoke run"
  fi
else
  fail "bench_wire not built"
fi

# -- 6c. lexpress bench smoke -----------------------------------------
note "bench_lexpress smoke (fast + reference pipelines, --json)"
if [ -x build/bench/bench_lexpress ]; then
  rm -f BENCH_lexpress.json
  if ./build/bench/bench_lexpress --json --benchmark_min_time=0.01 \
       --benchmark_filter='MapRecord/32|SteadyState' >/dev/null; then
    if python3 -c "import json; json.load(open('BENCH_lexpress.json'))" \
         2>/dev/null; then
      echo "BENCH_lexpress.json: valid JSON"
    else
      fail "BENCH_lexpress.json missing or unparsable"
    fi
  else
    fail "bench_lexpress smoke run"
  fi
else
  fail "bench_lexpress not built"
fi

# -- 6d. Durability bench smoke ---------------------------------------
note "bench_durability smoke (WAL-off vs batch fsync, --json)"
if [ -x build/bench/bench_durability ]; then
  rm -f BENCH_durability.json
  if ./build/bench/bench_durability --json --benchmark_min_time=0.01 \
       --benchmark_filter='DurableWrites/mode:(0|2)/threads:1/' \
       >/dev/null; then
    if python3 -c "import json; json.load(open('BENCH_durability.json'))" \
         2>/dev/null; then
      echo "BENCH_durability.json: valid JSON"
    else
      fail "BENCH_durability.json missing or unparsable"
    fi
  else
    fail "bench_durability smoke run"
  fi
else
  fail "bench_durability not built"
fi

# -- 7. Bench regression compare (non-fatal) -------------------------
note "bench compare vs committed baselines (non-fatal)"
if tools/bench_report.sh --compare --smoke >/tmp/bench_compare.log 2>&1; then
  grep -E '^(  |no regressions|SKIP)' /tmp/bench_compare.log || true
  echo "bench compare: no regressions flagged"
else
  grep -E 'REGRESSION|regressed|FAIL' /tmp/bench_compare.log || true
  echo "WARN: bench compare flagged >20% slowdowns vs committed" \
       "baselines (informational; smoke runs are noisy, not failing" \
       "the gate)"
fi

# --------------------------------------------------------------------
echo
if [ "$failures" -eq 0 ]; then
  echo "check.sh: all stages passed"
else
  echo "check.sh: $failures stage(s) FAILED"
fi
exit "$((failures > 0))"
