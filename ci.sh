#!/usr/bin/env bash
# CI entry point: tier-1 verification plus an optional sanitizer pass.
#
#   ./ci.sh            # tier-1: configure, build, ctest, plus the IPC
#                      # port/right suites and the fault-ahead and fault-exit
#                      # suites re-run under ASan with leak detection (cycle
#                      # reclamation and placeholder frees must be leak-clean)
#   ./ci.sh asan       # tier-1 under ASan+UBSan (-DMACH_SANITIZE=address)
#   ./ci.sh tsan       # VM/IPC concurrency suites under ThreadSanitizer
#   ./ci.sh all        # all of the above, sequentially
#   ./ci.sh bench [name...]  # run benchmark binaries, JSON into BENCH_<name>.json
#                            # (all of bench/ by default; names drop the bench_ prefix)
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)

run_suite() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# The leak-checked part of the fast lane, one ASan build for all of it:
#  * the IPC suites: the port-GC and no-senders machinery is only proven
#    correct if reclaiming queue cycles frees every byte;
#  * the fault paths that free placeholder pages on early exits: fault-ahead's
#    speculative runs (partial provide, pager death, teardown) and the
#    fault-exit suites (failed sends, object death mid-request, lost
#    default-pager copies), so an unreleased placeholder or message buffer
#    cannot land silently.
leak_lane() {
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
  cmake -B build-asan -S . -DMACH_SANITIZE=address
  cmake --build build-asan -j "$jobs" --target ipc_test ipc_property_test vm_test pager_test
  ctest --test-dir build-asan --output-on-failure -j "$jobs" -R '^(ipc_test|ipc_property_test)$'
  ./build-asan/tests/vm_test --gtest_filter='FaultAheadTest.*'
  ./build-asan/tests/pager_test --gtest_filter='FaultAheadPagerTest.*:PagerProtocolValidationTest.*:ExternalPagerTest.ForgedOversizeDataRequestIsRejectedAtTheWire:ExternalPagerTest.VmWriteWaitsOutAManagerLock:FaultExitTest.*:UnavailableOverShadowTest.*:DefaultPagerRequestTest.*'
}

mode=${1:-tier1}
case "$mode" in
  tier1)
    run_suite build
    leak_lane
    ;;
  asan)
    # Chaos and soak tests allocate aggressively; keep ASan strict but let
    # UBSan report without aborting the whole suite on first finding.
    export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
    export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
    run_suite build-asan -DMACH_SANITIZE=address
    ;;
  tsan)
    # Data-race lane for the VM lock hierarchy: the suites that fault,
    # reclaim, and message concurrently run under ThreadSanitizer. Kept to
    # the concurrency-heavy binaries — TSan is ~10x, and the full suite
    # runs in the other lanes.
    export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}
    tsan_suites='^(vm_test|vm_concurrent_test|property_test|ipc_property_test|shm_test|shm_property_test)$'
    cmake -B build-tsan -S . -DMACH_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target \
      vm_test vm_concurrent_test property_test ipc_property_test shm_test shm_property_test
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R "$tsan_suites"
    ;;
  all)
    "$0" tier1
    "$0" asan
    "$0" tsan
    ;;
  bench)
    # Machine-readable perf lane: every bench binary writes one JSON
    # document on stdout into BENCH_<name>.json at the repo root, so perf
    # changes land as reviewable diffs alongside the code that caused them.
    # google-benchmark binaries honour the format flag and run each row
    # five times, recording only the median, mean, stddev and CV rows; the
    # plain sweep programs (int main()) ignore the flags and print their own
    # JSON, with any human-readable table on stderr.
    cmake -B build -S .
    cmake --build build -j "$jobs"
    shift || true
    names="$*"
    if [ -z "$names" ]; then
      for b in build/bench/bench_*; do
        [ -x "$b" ] || continue
        names="$names ${b##*/bench_}"
      done
    fi
    for name in $names; do
      bin="build/bench/bench_${name}"
      if [ ! -x "$bin" ]; then
        echo "ci.sh bench: no such benchmark binary: $bin" >&2
        exit 2
      fi
      echo "=== bench_${name} -> BENCH_${name}.json"
      "$bin" --benchmark_format=json --benchmark_repetitions=5 \
        --benchmark_report_aggregates_only=true > "BENCH_${name}.json"
      if ! python3 -m json.tool "BENCH_${name}.json" > /dev/null; then
        echo "ci.sh bench: bench_${name} did not print valid JSON" >&2
        exit 1
      fi
    done
    ;;
  *)
    echo "usage: $0 [tier1|asan|tsan|all|bench [name...]]" >&2
    exit 2
    ;;
esac
