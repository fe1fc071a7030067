#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/tier1.sh                    # normal Release build in build/
#   scripts/tier1.sh --sanitize         # ASan+UBSan build in build-asan/
#   scripts/tier1.sh --tsan             # ThreadSanitizer build in build-tsan/
#   scripts/tier1.sh --labels unit      # only ctest tests labeled unit
#   scripts/tier1.sh --labels 'property|e2e'   # ctest -L regex
#   scripts/tier1.sh --tsan --labels skew      # work-stealing suites
#                                              # under ThreadSanitizer
#   scripts/tier1.sh --tsan --labels server    # batch-server lifecycle
#                                              # (admission, shedding,
#                                              # chaos) under TSan
#   scripts/tier1.sh --tsan --labels duality   # push/pull bit-equality
#                                              # + pull fault matrix
#   scripts/tier1.sh --tsan --labels incremental   # incremental-vs-full
#                                              # certification + mutation
#                                              # fault matrix
#   scripts/tier1.sh --sanitize --labels durability  # WAL/checkpoint/
#                                              # recovery crash matrices
#                                              # under ASan+UBSan
#   scripts/tier1.sh --tsan --labels durability      # same suites under
#                                              # ThreadSanitizer
#
# Label taxonomy lives in tests/CMakeLists.txt; `skew` marks the
# skew-adaptive scheduling / StealQueue / two-pass native suites, which
# are the ones worth re-running under --tsan after touching the
# Accumulate scheduler, `server` marks the batch-server suites
# (concurrent supervised runs on a shared pool), worth the same
# treatment after touching dispatch, admission, or shutdown paths, and
# `duality` marks the push/pull bit-equality oracle whose pull gather
# shards would race if the destination sharding were wrong.
# `incremental` marks the mutable-graph differential suite (incremental
# recompute certified against full, server kMutate/kSnapshot lifecycle);
# its PB-binned batch apply shards delta segments across threads, so it
# earns the same --tsan treatment after touching DynamicGraph or the
# runner's bin-drain order. `mutation` groups it with the DynamicGraph
# set-model property sweep (ctest -L mutation runs both).
# `durability` marks the WAL/checkpoint/recovery certification (torn
# tails, byte flips, checkpoint atomicity, acked == recovered, plus the
# real-daemon SIGKILL/restart loop); recovery replays batches through
# the parallel PB path and the WAL group-fsync batches acks across
# dispatcher threads, so run it under both --sanitize and --tsan after
# touching src/durability/ or the server's commit path. The
# out-of-process durability gate is scripts/soak.sh --crash.
# All ride in every plain and sanitizer pass too — the labels are a
# focus knob, not an opt-in.
#
# After the requested suite passes, hosts with AVX2 also build and run
# the suite with -DCOBRA_NATIVE_ARCH=ON (build-arch/), so the SIMD
# binning path gets the same test coverage as the portable build. The
# portable build always runs first: the scalar batch path must pass on
# its own, not just as the fallback inside an AVX2 build.
#
# Last, the serving benchmark (perfbench/) is built with the exact
# configure line perfbench/run.py uses (Release, .bench_build/). It
# compiles against src/ (WalRecord, WalWriter, DynamicGraph, the
# kernels, fnv1a), so an API change that breaks it fails here rather
# than at benchmark time.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
CTEST_ARGS=()
while [[ $# -gt 0 ]]; do
    case "$1" in
    --sanitize)
        BUILD_DIR=build-asan
        CMAKE_ARGS+=(-DCOBRA_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo)
        shift
        ;;
    --tsan)
        BUILD_DIR=build-tsan
        CMAKE_ARGS+=(-DCOBRA_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo)
        shift
        ;;
    --labels)
        [[ $# -ge 2 ]] || { echo "tier1: --labels needs a value" >&2; exit 2; }
        CTEST_ARGS+=(-L "$2")
        shift 2
        ;;
    *)
        echo "tier1: unknown argument: $1" >&2
        exit 2
        ;;
    esac
done

run_suite() {
    local dir=$1
    shift
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$(nproc)"
    (cd "$dir" && ctest --output-on-failure -j "$(nproc)" "${CTEST_ARGS[@]}")
}

run_suite "$BUILD_DIR" "${CMAKE_ARGS[@]}"

if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
    run_suite "${BUILD_DIR}-arch" "${CMAKE_ARGS[@]}" -DCOBRA_NATIVE_ARCH=ON
else
    echo "tier1: host lacks AVX2; skipping COBRA_NATIVE_ARCH pass"
fi

cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build --target perfbench -j "$(nproc)"
