#!/usr/bin/env bash
# Full verification: regular build + tests, then an AddressSanitizer build
# + tests (catches the memory bugs morsel-parallel execution can hide),
# then a ThreadSanitizer build running the concurrency-sensitive suites
# (the serving layer's sessions/admission/plan-cache paths and the thread
# pool) — data races in the shared-engine serving path only show up under
# TSan with genuinely concurrent sessions — and finally a dedicated
# recovery stage: the crash matrix (fault-injected child processes) under
# ASan, plus the WAL group-commit tests under TSan (the one writer path
# with a genuinely concurrent background flusher). The segmented-storage
# suites (ctest label `storage`: segment/zone-map units + the pruning
# differential corpus) and the replication suites (ctest label `repl`:
# wire/publisher/applier/coordinator units, the primary-vs-replica
# differential corpus, and the replication crash matrix) run as
# dedicated stages in both sanitizer builds, as does the model-lifecycle
# suite (ctest label `lifecycle`: rollout state machine, shadow/canary
# scoring, drift monitor, guard-rule auto-rollback), the dense
# scoring-kernel suite (ctest label `kernel`: kernel-vs-interpreted
# bitwise differential, scoring bug-sweep regressions, and the serving
# micro-batcher's coalescing concurrency), and the cancellation suite
# (ctest label `cancel`: deadlines, `.kill`, queued-request shed, and
# the abandon paths those create).
#
# Usage: scripts/check.sh
#          [--asan-only|--no-asan|--tsan-only|--no-tsan|--recovery-only]
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_PLAIN=1
RUN_ASAN=1
RUN_TSAN=1
RUN_RECOVERY=1
case "${1:-}" in
  --asan-only) RUN_PLAIN=0; RUN_TSAN=0; RUN_RECOVERY=0 ;;
  --no-asan) RUN_ASAN=0 ;;
  --tsan-only) RUN_PLAIN=0; RUN_ASAN=0; RUN_RECOVERY=0 ;;
  --no-tsan) RUN_TSAN=0 ;;
  --recovery-only) RUN_PLAIN=0; RUN_ASAN=0; RUN_TSAN=0 ;;
  "") ;;
  *)
    echo "usage: $0 [--asan-only|--no-asan|--tsan-only|--no-tsan|--recovery-only]" >&2
    exit 2
    ;;
esac

JOBS="$(nproc 2>/dev/null || echo 4)"

if [[ "$RUN_PLAIN" == 1 ]]; then
  echo "== plain build + ctest =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== ASan build + ctest =="
  cmake -B build-asan -S . -DFLOCK_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

  echo "== ASan storage stage: segments + pruning differential =="
  # The segmented-storage suites carry the `storage` ctest label. Under
  # ASan they vet the zero-copy scan paths: every morsel aliases segment
  # memory, so any use-after-rewrite in the mutation paths (fresh-vector
  # swaps on UPDATE/DELETE) surfaces here.
  cmake --build build-asan -j "$JOBS" --target storage_test \
    pruning_differential_test
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L storage

  echo "== ASan repl stage: replication units + differential + crash matrix =="
  # The replication suites carry the `repl` ctest label. Under ASan they
  # vet the snapshot/record (de)serialization round-trips, the applier's
  # apply loop over the shared recovery path, and the failover drain —
  # including the re-exec'd crash child that dies mid-WAL-append.
  cmake --build build-asan -j "$JOBS" --target repl_test \
    repl_differential_test
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L repl

  echo "== ASan kernel stage: dense scoring kernel + micro-batcher =="
  # The dense-kernel suite carries the `kernel` ctest label. Under ASan it
  # vets the ping-pong scratch-buffer reuse (block batching over shared
  # thread-local scratch) and the coalescer's row hand-off buffers — the
  # two places a slot-index bug would read or write out of bounds.
  cmake --build build-asan -j "$JOBS" --target kernel_test
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L kernel

  echo "== ASan cancel stage: deadlines + cooperative cancellation =="
  # The cancellation suite carries the `cancel` ctest label. Under ASan it
  # vets the abandon paths a kill creates: a follower leaving a live batch
  # whose rows the leader still scores, a shed request whose promise is
  # fulfilled off the worker, and the executor unwinding mid-morsel.
  cmake --build build-asan -j "$JOBS" --target cancel_test
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L cancel

  echo "== ASan lifecycle stage: rollouts + drift monitor + auto-rollback =="
  # The model-lifecycle suite carries the `lifecycle` ctest label. Under
  # ASan it vets the rollout snapshot (de)serialization round-trips, the
  # candidate pipeline install/retire paths, and the crash-recovery /
  # replication of rollout state.
  cmake --build build-asan -j "$JOBS" --target lifecycle_test
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L lifecycle
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== TSan build + concurrent-suite ctest =="
  cmake -B build-tsan -S . -DFLOCK_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target serve_test common_test \
    parallel_differential_test obs_test flock_test
  # Concurrency-sensitive suites only: serving (concurrent sessions over
  # one shared engine), the thread pool, the morsel-parallel executor,
  # the observability primitives hit from every serving thread (latency
  # histogram, metrics registry, slow log, admission drain), and
  # concurrent plan-cache misses storing cross-optimizer decisions in the
  # model registry.
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'Serve|ServerMetrics|LatencyHistogram|SessionManager|AdmissionController|ThreadPool|ParallelDifferential|MetricsRegistry|SlowQueryLog|ObsEngine|ConcurrentMissesSpecializeOncePerKey'
  # The full observability suite carries the `obs` ctest label; run it
  # whole under TSan too (tracing installs thread-local recorders on the
  # serving workers, exactly the kind of state TSan should vet).
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L obs

  echo "== TSan storage stage: concurrent stats + pruned parallel scans =="
  # Zone-map pruning reads live segment stats from every executor worker
  # while GetStats lazily fills its aggregate cache; the `storage` label
  # under TSan proves that reader-side path race-free.
  cmake --build build-tsan -j "$JOBS" --target storage_test \
    pruning_differential_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L storage

  echo "== TSan repl stage: background streaming + bounded staleness =="
  # The applier's streaming thread races its position/lag gauges against
  # readers (the staleness gate, the coordinator's lag reports, metrics)
  # and its Stop/Start handoff against the coordinator's detach; `repl`
  # under TSan proves those handoffs race-free.
  cmake --build build-tsan -j "$JOBS" --target repl_test \
    repl_differential_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L repl

  echo "== TSan kernel stage: cross-request coalescing =="
  # The micro-batcher's leader/follower handoff (batch cv, done flag,
  # stats counters) runs on serving worker threads; `kernel` under TSan
  # proves the coalescing path race-free, including the drain/flush wakeup
  # and the stress test's mixed batch shapes.
  cmake --build build-tsan -j "$JOBS" --target kernel_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L kernel

  echo "== TSan cancel stage: kill vs. running statement =="
  # A kill races the executing worker by design: the token flips on the
  # killer's thread while morsel workers, batch waiters, and the retry
  # loop poll it. The `cancel` label under TSan proves the token state,
  # the session's active-cancel handoff, and the admission expired-path
  # promise fulfillment race-free — the "zero worker leaks under TSan"
  # acceptance check.
  cmake --build build-tsan -j "$JOBS" --target cancel_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L cancel

  echo "== TSan lifecycle stage: shadow scoring + guard-rule rollback =="
  # The interceptor runs on serve worker threads while guard breaches
  # trigger rollback through DeployTransaction on whichever thread hits
  # the limit first; `lifecycle` under TSan proves the stage/finalizing
  # handoff and the shared counters race-free, and the flock_test deploy
  # race test vets Commit's undo path against concurrent scorers.
  cmake --build build-tsan -j "$JOBS" --target lifecycle_test flock_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L lifecycle
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'DeployRollbackRacesConcurrentScorers'
fi

if [[ "$RUN_RECOVERY" == 1 ]]; then
  echo "== recovery stage: crash matrix under ASan =="
  # The WAL/recovery suites carry the `recovery` ctest label. Running the
  # crash matrix under ASan means every fault-injected child process and
  # every recovery path is memory-checked; leak detection stays off
  # because the injected crashes _exit mid-operation by design.
  cmake -B build-asan -S . -DFLOCK_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" --target wal_test recovery_test
  ASAN_OPTIONS=detect_leaks=0 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L recovery

  echo "== recovery stage: WAL group commit under TSan =="
  # Group commit is the only WAL path with real concurrency (appenders +
  # background flusher); TSan proves the seq/cv handoff race-free.
  cmake -B build-tsan -S . -DFLOCK_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target wal_test
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'GroupCommit|FsyncPolicy'
fi

echo "All checks passed."
