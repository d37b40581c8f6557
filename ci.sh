#!/usr/bin/env bash
# CI entry point: builds and tests the simulator in two configurations —
#
#   1. Release      (assertions kept; what benches and users run)
#   2. ASan+UBSan   (-DMRAPID_SANITIZE=ON, catches memory and UB bugs
#                    the deterministic tests alone cannot)
#
# Usage: ./ci.sh [extra ctest args, e.g. -R Golden]
#
# Golden traces are refreshed with:  GOLDEN_UPDATE=1 ctest -R Golden
# (see tests/golden_trace_test.cc) — never run that in CI.
set -euo pipefail
cd "$(dirname "$0")"

CTEST_ARGS=("$@")
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

export ASAN_OPTIONS="detect_leaks=1:${ASAN_OPTIONS:-}"

# Golden traces must never be rewritten by CI, only compared.
unset GOLDEN_UPDATE

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${CTEST_ARGS[@]}")
  echo "=== [$name] bench smoke ==="
  # The experiment driver end to end: every registered experiment on
  # CI-sized geometries, trials across 2 workers, JSON sink exercised.
  # A failed trial turns this non-zero.
  "$dir/bench/mrapid_bench" --smoke --jobs 2 --json /tmp/smoke.json > /dev/null
  # The fault-recovery experiment once more in isolation: exercises the
  # --filter path and keeps its recovery-overhead JSON as its own
  # artifact (per-mode crash/AM-kill cost, lost containers, restarts).
  "$dir/bench/mrapid_bench" --filter fault_recovery --smoke --jobs 2 \
    --json /tmp/smoke_fault.json > /dev/null
  # The multi-tenant stream experiment in isolation (docs/STREAMS.md):
  # open-loop tenant arrivals through the fair-queue layer in all four
  # modes, with steady-state quantiles and per-tenant conservation
  # checked inside each trial.
  "$dir/bench/mrapid_bench" --filter tenant_stream --smoke --jobs 2 \
    --json /tmp/smoke_stream.json > /dev/null
  # The scheduler-zoo shootout in isolation (docs/SCHEDULERS.md):
  # every registry policy x all four modes on the same streams, with
  # drain and per-job conservation asserted inside each trial — the
  # backfilling policies' only full-stack CI exercise besides the
  # fuzzer's policy seeds.
  "$dir/bench/mrapid_bench" --filter scheduler_shootout --smoke --jobs 2 \
    --json /tmp/smoke_shootout.json > /dev/null
  # The sim-core throughput experiment (docs/PERF.md), smoke-sized, in
  # both configs: its four variants drive engine kernels directly.
  # event-churn and cancel-heavy run the slab event queue,
  # placement-shuffle the indexed placement policy + incremental
  # waterfill through a scripted replica-draw/shuffle-flow mix, and
  # job-scale the partition-once registry, slab fetch records and
  # coalesced flows through a 256-map x 64-reducer job straight at
  # ReduceRunner. The periodic heartbeat lane + NodeTable-backed
  # scheduler on a large (256-node) cluster get their sanitizer-leg run
  # from ElisionLargeCluster in ctest above. The smoke-sized
  # events/sec JSON is kept as a build artifact; the committed
  # BENCH_simcore.json at the repo root is refreshed manually from a
  # full (non-smoke) run on a quiet machine.
  "$dir/bench/mrapid_bench" --filter sim_core --smoke \
    --json "$dir/BENCH_simcore.json" > /dev/null
  echo "=== [$name] fuzz smoke ==="
  # A bounded differential-fuzz campaign (docs/FUZZING.md): every
  # scenario runs all four modes against the reference executor with
  # result-digest, trace-invariant and determinism oracles. Fixed seed
  # range so CI time is bounded; any violation turns this non-zero.
  # The report is kept for the release leg's worker-count check.
  "$dir/tools/mrapid_fuzz" --seeds 0..24 --jobs 2 | tee "$dir/fuzz_jobs2.txt"
}

run_config release build-release -DCMAKE_BUILD_TYPE=Release -DMRAPID_WERROR=ON

echo "=== [release] job-count identity ==="
# SweepRunner workers share generated inputs and memoized map outputs
# through wl::DatasetCache. Every registered experiment's smoke JSON
# must be byte-identical on one worker and on two (the --jobs 2 run of
# the bench smoke step above), apart from the top-level "jobs" field
# that records the worker count.
build-release/bench/mrapid_bench --smoke --jobs 1 --json /tmp/smoke_jobs1.json > /dev/null
normalise_jobs() { sed -E 's/^  "jobs": [0-9]+,$/  "jobs": N,/' "$1"; }
diff <(normalise_jobs /tmp/smoke.json) <(normalise_jobs /tmp/smoke_jobs1.json)

echo "=== [release] fuzz worker-count identity and injected bug ==="
# The campaign's workers share map outputs, reduce outputs and digest
# steps through wl::DatasetCache, and the ctest oracle only covers
# seeds 0..7: the full campaign's report must be byte-identical on one
# worker and on two (the fuzz smoke step above).
build-release/tools/mrapid_fuzz --seeds 0..24 --jobs 1 > /tmp/fuzz_jobs1.txt
diff build-release/fuzz_jobs2.txt /tmp/fuzz_jobs1.txt
# With reduces dropping a shard, seeds 0..7 hold five failing scenarios.
# A memo that handed back the correct answer to a wrong computation
# would pass them; the campaign must exit non-zero.
if build-release/tools/mrapid_fuzz --seeds 0..7 --jobs 2 --inject-bug drop-shard > /dev/null; then
  echo "mrapid_fuzz --inject-bug drop-shard found no failure" >&2
  exit 1
fi

echo "=== [release] end-to-end benchmark check ==="
# perfbench's own unit tests, then every workload once (--seconds 0:
# the minimum number of processes) at the held-out seed 7, and the two
# that read Zipf corpora (paper-sweep, tenant-stream) at the default
# seed 1 too, so both recorded digests gate the sampler. run.py exits
# 0 even when a check fails, so the step reads its last stdout line, a
# JSON object: "correct" is true only when every job's digest equals
# the reference executor's and the combined digest equals the one
# recorded in perfbench/digests.json, which makes the recorded digests
# a gate on the workload payload's answers. cluster-scale is the
# 10k-node heartbeat stream: its digests and drain gate the periodic
# lane's elision of idle beats and the scheduler at full scale.
# tenant-stream puts D+ and the AM pool under the same elision.
python3 -m unittest discover -s perfbench/tests
for run in paper-sweep:7 tenant-stream:7 cluster-scale:7 paper-sweep:1 tenant-stream:1; do
  workload="${run%:*}" seed="${run#*:}"
  out="build-release/perfbench_${workload//-/_}_seed${seed}.txt"
  python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 0 --trace 0 > "$out"
  tail -n 1 "$out" |
    python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)'
done

echo "=== [release] determinism gate ==="
# Golden traces and fuzzer reproducers live in the source tree and are
# only ever rewritten under GOLDEN_UPDATE=1 / --shrink, which CI never
# sets. After the full suite + benches + fuzz have run, any byte of
# drift under these trees means determinism regressed; that includes
# the SparkLite golden (wordcount_spark.trace, three reduce
# partitions), which pins the comparison engine's shuffle. Each hot path
# has one engine, held to a small independent oracle in ctest above:
# sorted references for the event queue and the periodic lane (plus,
# for the lane, a never-parked run of every script),
# from-scratch scans for the NodeTable, a candidate-vector scan for
# placement, a textbook progressive-filling reference (0 ULP) plus a
# brute-force max-min check for the waterfill, and per-fetch
# partitioning for the shuffle registry. The workload payload's kernels
# are held to theirs the same way: the per-call Zipf formula for the
# sampler (at every guide cell's ends and at seeded draws inside it,
# and over a 2M-draw stream), the string tokenizer for the token-id
# WordCount map, the byte-by-byte string fold for WordCount's keyed reduce and result
# digest (with std::string order for the 64-bit word keys, and the byte
# loop for Fnv64's zero-byte folding), and the Halton digit loop
# (memcmp) for the Pi kernel.
git diff --exit-code -- tests/golden tests/regressions

run_config sanitize build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMRAPID_SANITIZE=ON

echo "=== CI green: release + sanitize ==="
