#!/usr/bin/env bash
# Minimal CI: tier-1 verify (ROADMAP.md) + sanitizer passes over the
# concurrency-heavy tests + the benchmark self-test and a Release-mode perf
# smoke test.
#
#   tools/ci.sh                # tests + warning-free build + sanitizers + benches
#   tools/ci.sh --no-bench     # skip the perfbench self-test and release bench
#   tools/ci.sh --no-sanitize  # skip the TSan/ASan/UBSan builds
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=1
RUN_SANITIZE=1
for arg in "$@"; do
  case "$arg" in
    --no-bench) RUN_BENCH=0 ;;
    --no-sanitize) RUN_SANITIZE=0 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1 verify =="
cmake -B build -S . && cmake --build build -j && (cd build && ctest --output-on-failure -j)

echo "== warning-free build =="
# A fresh tree in which any compiler warning fails the build, for every
# target: -Wswitch is what catches a ControlKind or frame type a switch
# forgot, and -Wdangling-else an assertion that an unbraced if swallows.
cmake -B build-werror -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build-werror -j
# The same in Release (-O3, as perfbench builds src/): GCC's flow-based
# warnings (-Wrestrict, -Wmaybe-uninitialized, -Warray-bounds) see more
# after more inlining, so a tree that is clean at the default build type
# can still warn here.
cmake -B build-werror-release -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build-werror-release -j

echo "== ring wake edges (Release) =="
# A lost wake never hangs a ring: ParkingLot re-checks its predicate every
# 5 ms, so it shows only as latency, and TSan does not model the fences
# the wake protocol pairs. ring_wake_test bounds the median wake latency
# of both park edges (a push onto an empty ring, a pop from a full one)
# and, with the adaptive spin budget, the consumer CPU per batch (under
# 12 us) when batches arrive 500 us apart, too far apart for spinning to
# pay, and that a lot parking at once goes back to spinning once its waits
# turn short, however late its wakes land; repeat it in the optimized
# tree. The tiny-ring batch-claim stress runs with it: rings of one to
# three slots are where a consumer stuck in trickle naps turns
# milliseconds into seconds.
(cd build-werror-release && ctest -R '^ring_wake_test$' --repeat until-fail:50 --output-on-failure)
(cd build-werror-release && GTEST_FILTER='*BatchClaimStress*' \
  ctest -R '^ring_queue_test$' --repeat until-fail:20 --output-on-failure)

echo "== overload scenarios =="
(cd build && ctest -L overload --output-on-failure)
# Repeated: the shed cases engage only because the joiner counts the batch
# it has already popped as backlog. Without that, a flood reaches the
# watermark only when a producer refills the queue first, so a regression
# fails only some runs and one pass can miss it.
(cd build && ctest -R overload_test --repeat until-fail:20 --output-on-failure)

echo "== multi-process smoke =="
# `net`-labeled tests open localhost sockets; net_smoke_test additionally
# fork/execs the real dssj_cli + dssj_worker binaries and diffs the result
# set against a single-process run, and wire_codec_equivalence_test runs
# per-codec TCP clusters (raw/delta x batch sizes x faults) plus a
# mixed-codec cluster.
# Sandboxed runners without sockets can skip the whole surface with
# `ctest -LE net` (the tests also self-skip when no localhost port can be
# bound).
(cd build && ctest -L net --output-on-failure)

echo "== scripted disconnect repetition (N=20) =="
# A redial's reader can parse its HELLO before the reader of the
# connection it replaces, for example when both still sit in the listen
# backlog as the accept thread starts. Unless the receiver orders one
# rank's connections by the HELLO connection index, the redial's frames
# overtake the old connection's and the consumer's link guard aborts on
# the gap. The schedule that shows it is rare, so one pass can miss it.
(cd build && GTEST_FILTER='*Disconnect*' \
  ctest -R '^(net_transport_test|wire_codec_equivalence_test)$' \
    --repeat until-fail:20 --output-on-failure)

echo "== elastic migration scenarios =="
# Live-migration exactness: blob-codec corruption fuzz, scripted
# migration/kill races, the 2->4->2 autoscale scenario, and the TCP
# handoff smoke (self-skips without sockets). Also part of `-L net` above;
# kept as its own stage so a migration regression is named in CI output.
(cd build && ctest -L migration --output-on-failure)
# Repeated: a migration still waiting on a remote rank once the run was
# over used to park the elastic controller forever (main blocked joining
# it) in about 1-3% of TcpMigrationTest runs; one pass rarely hits that.
(cd build && ctest -R migration_test --repeat until-fail:50 --output-on-failure)

echo "== tiered state store =="
# Durable-state surface (docs/INTERNALS.md §13): the one frame, chain files
# and segment files with torn-write + bit-flip sweeps and fuzz, spill GC
# life cycle, checkpoint service ordering/wedging, and the
# recovery-equivalence suite (sync full vs async base+delta vs spilled
# windows, kills landing mid-checkpoint).
(cd build && ctest -L store --output-on-failure)

echo "== torn-write fuzz repetition (N=20) =="
# The fuzz seeds inside store_test are fixed for reproducibility; repeated
# runs re-explore the corruption space (truncation point, flipped bit, and
# the damaged chain or segment file all re-randomize per iteration within
# a run, so repetition multiplies coverage). A failure here means a corrupt
# chain was read back as valid — the worst silent failure the store can
# have.
(cd build && ctest -R store_test --repeat until-fail:20 --output-on-failure)

echo "== store tmpdir hygiene =="
# Every store/spill test routes its files through a mkdtemp dir under the
# gtest TempDir and removes it in the fixture dtor; litter here means a
# ScopedTempDir leak (or a checkpoint path escaping its store root), which
# would accumulate across CI runs.
LITTER=$(find "${TMPDIR:-/tmp}" -maxdepth 1 -name 'dssj_*' 2>/dev/null | head -5)
if [[ -n "$LITTER" ]]; then
  echo "store tests littered the temp dir:" >&2
  echo "$LITTER" >&2
  exit 1
fi

if [[ "$RUN_SANITIZE" == "1" ]]; then
  # Each sanitizer gets its own build tree; only the `tsan_safe`-labeled
  # tests (the queue/executor/supervision concurrency surface) are built and
  # run — the full suite under sanitizers is too slow for this host.
  TSAN_SAFE_TARGETS=(queue_test ring_queue_test queue_equivalence_test
                     topology_test topology_stress_test
                     stream_substrate_misc_test fault_recovery_test
                     distributed_join_test adaptive_router_test
                     ingest_lanes_test checkpoint_equivalence_test
                     migration_test tuple_hop_alloc_test)

  echo "== thread sanitizer =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j --target "${TSAN_SAFE_TARGETS[@]}"
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ctest -L tsan_safe --output-on-failure)

  echo "== sharded router snapshot-publish repetition (TSan, N=20/30) =="
  # With ingest lanes every lane's router reads the adaptive epoch list as
  # an immutable snapshot while the replanner swaps in replacements under
  # a pointer mutex and folds observations under a try-lock
  # (docs/INTERNALS.md §14). Repeat the router unit tests and the
  # shared-router lanes scenario so a torn read or lost-observation
  # schedule has real odds of surfacing.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
    ctest -R 'adaptive_router_test' --repeat until-fail:20 --output-on-failure)
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" GTEST_FILTER='*SharedAdaptiveRouter*' \
    ctest -R 'ingest_lanes_test' --repeat until-fail:30 --output-on-failure)

  echo "== lane-merge checkpoint capture repetition (TSan, N=5) =="
  # Async checkpoints capture the joiners' lane-merge buffers as record
  # pointers and encode them on the checkpoint thread while the joiner
  # keeps draining (docs/INTERNALS.md §13-14). The lanes x async-store
  # recovery matrix is part of the tsan_safe pass above; repeat it so the
  # capture/encode/arena-release edge gets more schedules.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" GTEST_FILTER='*AsyncDeltaChains*' \
    ctest -R 'ingest_lanes_test' --repeat until-fail:5 --output-on-failure)

  echo "== ring-queue race repetition (TSan, N=200) =="
  # The close/wake interleavings in the lock-free ring are the raciest
  # code in the repo and a single pass rarely explores them; hammer the
  # ring stress tests and the RingQueue contract suite 200 times under TSan
  # so a stranded-waiter or missed-close schedule has real odds of
  # surfacing.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
    ctest -R '^(ring_queue_test|queue_test)$' --repeat until-fail:200 --output-on-failure)

  echo "== address sanitizer =="
  # ASan also covers the network surface: the transport threads + wire
  # parser run under it in-process, and the multi-process smoke re-runs
  # with both spawned binaries ASan-instrumented. The `joiner` suites run
  # the posting-list front erase and checkpoint replay instrumented.
  ASAN_TARGETS=("${TSAN_SAFE_TARGETS[@]}"
                net_wire_test net_transport_test net_smoke_test
                wire_codec_equivalence_test wire_borrow_test
                store_test
                local_joiner_test bundle_joiner_test checkpoint_test
                fuzz_equivalence_test two_stream_joiner_test
                dssj_cli dssj_worker)
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  cmake --build build-asan -j --target "${ASAN_TARGETS[@]}"
  (cd build-asan && ASAN_OPTIONS="detect_leaks=1" \
    ctest -L 'tsan_safe|net|joiner' --output-on-failure)

  echo "== sharded ingestion multi-process smoke (ASan, lanes=4) =="
  # A real two-process TCP cluster with the ingestion front end split into
  # four lanes, both binaries ASan-instrumented: the coordinator's pair set
  # must equal a single-lane in-process run over the same corpus
  # (docs/INTERNALS.md §14, exercised end-to-end through the CLI). Pair
  # *sets* are compared sorted — the sink's collection order is
  # interleaving-dependent; the set is not. A memory budget makes the
  # joiners evict, and the coordinator's `overload:` line must report the
  # same loss as the single-process run: budget evictions on the worker's
  # joiners count too. Skips without localhost sockets.
  LANES_CLUSTER=$(python3 - <<'PYEOF'
import socket
try:
    a, b = socket.socket(), socket.socket()
    a.bind(("127.0.0.1", 0)); b.bind(("127.0.0.1", 0))
    print("127.0.0.1:%d,127.0.0.1:%d" % (a.getsockname()[1], b.getsockname()[1]))
    a.close(); b.close()
except OSError:
    pass
PYEOF
)
  if [[ -z "$LANES_CLUSTER" ]]; then
    echo "no localhost sockets; skipping lanes smoke"
  else
    LANES_TMP=$(mktemp -d "${TMPDIR:-/tmp}/ci_lanes.XXXXXX")
    python3 - "$LANES_TMP/corpus.txt" <<'PYEOF'
import sys
rng = 0x243F6A8885A308D3
lines = []
for i in range(2000):
    rng = (rng * 6364136223846793005 + 1442695040888963407) % (1 << 64)
    if i % 3 == 2 and i >= 2:  # near-duplicate of a recent line
        base = lines[i - 1 - (rng % 2)].split()
        base[rng % len(base)] = "w%d" % ((rng >> 33) % 400)
        lines.append(" ".join(base))
        continue
    words = []
    for _ in range(3 + rng % 9):
        rng = (rng * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        words.append("w%d" % ((rng >> 33) % 400))
    lines.append(" ".join(words))
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
PYEOF
    LANES_FLAGS=(--threshold=600 --joiners=4 --max-pairs=100000 --max_index_bytes=4000)
    ASAN_OPTIONS="detect_leaks=1" ./build-asan/examples/dssj_cli \
        "$LANES_TMP/corpus.txt" "${LANES_FLAGS[@]}" > "$LANES_TMP/ref.out"
    grep '~' "$LANES_TMP/ref.out" | sort > "$LANES_TMP/ref.txt"
    [[ -s "$LANES_TMP/ref.txt" ]]  # a pair-free corpus would make this vacuous
    grep -q '^overload:.*budget_evictions=[1-9]' "$LANES_TMP/ref.out"  # the budget engaged
    ASAN_OPTIONS="detect_leaks=1" ./build-asan/examples/dssj_worker --rank=1 \
        --transport=tcp --connect="$LANES_CLUSTER" --ingest_lanes=4 "${LANES_FLAGS[@]}" &
    LANES_WORKER=$!
    ASAN_OPTIONS="detect_leaks=1" ./build-asan/examples/dssj_cli "$LANES_TMP/corpus.txt" \
        --transport=tcp --connect="$LANES_CLUSTER" --ingest_lanes=4 "${LANES_FLAGS[@]}" \
        > "$LANES_TMP/lanes4.out"
    grep '~' "$LANES_TMP/lanes4.out" | sort > "$LANES_TMP/lanes4.txt"
    wait "$LANES_WORKER"
    diff -u "$LANES_TMP/ref.txt" "$LANES_TMP/lanes4.txt"
    diff -u <(grep '^overload:' "$LANES_TMP/ref.out") \
        <(grep '^overload:' "$LANES_TMP/lanes4.out")
    rm -rf "$LANES_TMP"
  fi

  echo "== tiered state store (ASan) =="
  # The store suite's failure modes are exactly ASan's beat: torn-write
  # fuzz walks the frame parser over truncated and bit-flipped chain and
  # segment files (out-of-bounds reads on corrupt varints), and the spill
  # read-back path hands borrowed frame bytes across the probe boundary.
  # Includes the recovery-equivalence suite so restore-time buffer handling
  # runs instrumented too.
  (cd build-asan && ASAN_OPTIONS="detect_leaks=1" \
    ctest -L store --output-on-failure)

  echo "== wire fuzz + borrow lifetime (ASan) =="
  # The fuzz battery (>= 5000 structured mutations over both codecs and
  # the migration control frames, owning and arena parse paths) and the
  # borrow-lifetime regressions (net_arena_pool=0 frees every frame buffer
  # at last-borrower drop) are exactly the tests whose failure mode is a silent out-of-bounds read —
  # they only prove anything under ASan, so they get an explicit stage.
  (cd build-asan && ASAN_OPTIONS="detect_leaks=1" \
    ctest -R 'net_wire_test|wire_borrow_test' --output-on-failure)

  echo "== undefined behavior sanitizer =="
  # UBSan is cheap enough to cover the overload/shedding surface on top of
  # the concurrency set (shed accounting does a lot of size_t arithmetic),
  # the joiner suites' slot, probe-run and filter-bound arithmetic, and the
  # store suite, whose checksum does unaligned word loads and shifts.
  UBSAN_TARGETS=("${TSAN_SAFE_TARGETS[@]}" overload_test
                 net_wire_test wire_borrow_test store_test
                 local_joiner_test bundle_joiner_test checkpoint_test
                 fuzz_equivalence_test two_stream_joiner_test)
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
  cmake --build build-ubsan -j --target "${UBSAN_TARGETS[@]}"
  (cd build-ubsan && UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest -L 'tsan_safe|overload|joiner|store' --output-on-failure)

  echo "== wire fuzz (UBSan) =="
  # Varint shifting, zigzag casts, and length-prefix arithmetic are the
  # repo's densest integer-overflow surface; run the mutational battery
  # under UBSan as well as ASan.
  (cd build-ubsan && UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest -R 'net_wire_test|wire_borrow_test' --output-on-failure)
fi

if [[ "$RUN_BENCH" == "1" ]]; then
  echo "== perfbench self-test =="
  # Every benchmark workload at 3000 records, untraced and traced: metric
  # names and units match BENCHMARK.json, every run matches the oracle,
  # spans nest, and no temporary directory is left behind (~7 s once the
  # standalone Release build in .bench_build/ exists).
  python3 perfbench/selftest.py

  echo "== release smoke bench =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j --target bench_local_join
  ./build-release/bench/bench_local_join --records=20000 \
    --benchmark_filter='BM_RecordJoiner/40|BM_BundleJoiner/40'
fi

echo "CI OK"
