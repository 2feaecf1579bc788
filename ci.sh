#!/usr/bin/env sh
# CI gate: offline build, full test suite, fixed-seed chaos smoke, and a
# wall-clock perf smoke.
#
# The workspace builds with no network access (all external deps are
# path-shimmed under shims/), so `cargo fetch` is a fast no-op that fails
# loudly if a registry dependency ever sneaks in.
#
# Every step is timed so slowdowns are visible in the CI log itself.
set -eu

cd "$(dirname "$0")"

step() {
    name="$1"
    shift
    echo "==> $name"
    t0=$(date +%s)
    "$@"
    echo "==> $name: done in $(( $(date +%s) - t0 ))s"
}

step "cargo fetch" cargo fetch

step "cargo build --release" cargo build --release

step "cargo test --workspace -q" cargo test --workspace -q

step "chaos smoke (seeds 0..32)" \
    cargo run --release --quiet --bin chaos -- --seeds 0..32

# The same sweep with the multi-tenant QoS engine installed: the two
# extra invariants (tenant-quota, priority-eviction) run on every seed,
# and admission/eviction decisions are digest-checked for determinism by
# the test suite.
step "qos chaos smoke (seeds 0..32)" \
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --qos

# Fault-free chaos output is pinned byte-for-byte against the committed
# baseline: the fault-injection layer must cost exactly nothing — no RNG
# draws, no clock advances, no metric keys — when it is not installed.
step "chaos fault-free baseline (byte-identical)" sh -c '
    cargo run --release --quiet --bin chaos -- --seeds 0..32 \
        > results/chaos_smoke_baseline.txt
    git diff --exit-code -- results/chaos_smoke_baseline.txt
'

# The same sweep with the fabric fault layer armed: verb drops/delays/
# duplication, partitions and QP breaks on every seed, judged by the
# fault-reads and suspect-resolution invariants on top of the original
# five. Run at --jobs 1 vs --jobs 4 and diffed: the whole fault schedule
# — injections, retries, failovers, suspicions, and the per-seed alert
# logs with their digests — must be byte-identical regardless of how the
# seeds fan across cores.
step "faults chaos smoke (seeds 0..32, --jobs 1 vs 4 determinism gate)" sh -c '
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --faults --jobs 1 \
        > target/chaos_faults_a.txt
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --faults --jobs 4 \
        > target/chaos_faults_b.txt
    diff target/chaos_faults_a.txt target/chaos_faults_b.txt
'

# Flight-recorder dump smoke: force a known invariant failure (factor-1
# data lost to a node crash) from a pinned seed and byte-diff the dump —
# violation line, recent-event ring, metric windows — against the
# committed golden. The dump path must stay deterministic or it is
# useless for debugging chaos failures.
step "chaos flight-recorder fixture (golden dump)" sh -c '
    cargo run --release --quiet --bin chaos -- --flight-fixture \
        > results/chaos_flight_fixture.txt
    git diff --exit-code -- results/chaos_flight_fixture.txt
'

# Sharded-engine determinism gate, chaos side: the same 32-seed sweep
# with the cluster split into 1 vs 4 host-groups (shard router armed)
# must produce byte-identical stdout — the router observes every verb's
# (virtual_time, shard, seq) mailbox key and panics on any misorder, but
# must never steer a single decision.
step "chaos shard determinism (--shards 1 vs 4, byte-diff)" sh -c '
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --shards 1 \
        > target/chaos_shards_1.txt
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --shards 4 \
        > target/chaos_shards_4.txt
    diff target/chaos_shards_1.txt target/chaos_shards_4.txt
'

# Sharded-engine determinism gate, rack side: the rack-scale smoke must
# be byte-identical at 1 vs 4 vs 8 worker threads (same logical shards,
# different parallelism) AND match the committed golden CSV. Eight
# workers outnumber the cores of a typical CI runner, so that run takes
# the engine's blocking (no-spin) barrier path.
step "fig4_rack smoke determinism (workers 1 vs 4 vs 8 + golden CSV)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin fig4_rack -- --smoke --shards 1 \
        > target/fig4_rack_smoke_1.txt
    cargo run --release --quiet -p dmem-bench --bin fig4_rack -- --smoke --shards 4 \
        > target/fig4_rack_smoke_4.txt
    cargo run --release --quiet -p dmem-bench --bin fig4_rack -- --smoke --shards 8 \
        > target/fig4_rack_smoke_8.txt
    diff target/fig4_rack_smoke_1.txt target/fig4_rack_smoke_4.txt
    diff target/fig4_rack_smoke_1.txt target/fig4_rack_smoke_8.txt
    git diff --exit-code -- results/fig4_rack_smoke.csv
'

# Rack timeline gate: the merged per-window metric timeline — per-shard
# samplers stitched in (window, shard) order — must be byte-identical at
# 1 vs 4 workers AND match the committed golden CSV.
step "fig4_rack timeline (workers 1 vs 4 + golden CSV)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin fig4_rack -- --smoke --shards 1 \
        --timeline-out results/fig4_rack_timeline.csv > /dev/null
    cargo run --release --quiet -p dmem-bench --bin fig4_rack -- --smoke --shards 4 \
        --timeline-out target/fig4_rack_timeline_4.csv > /dev/null
    diff results/fig4_rack_timeline.csv target/fig4_rack_timeline_4.csv
    git diff --exit-code -- results/fig4_rack_timeline.csv
'

# Rack perf smoke: wall-clock at 1 vs 4 workers against the committed
# baseline (3x tolerance). On a 4+ core machine the binary additionally
# enforces the >= 2x parallel-speedup acceptance gate; on smaller
# machines it prints a skip note and still checks the regression bound.
step "fig4_rack perf smoke (speedup gate + 3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin fig4_rack -- --perf --check results/BENCH_rack_baseline.json

# QoS isolation smoke: the reduced ext_qos sweep must be byte-identical
# to the committed golden CSV (virtual-clock determinism) and its
# built-in acceptance check must pass (high-priority p99 flat under QoS,
# degrading without it) — the binary exits nonzero otherwise.
step "ext_qos smoke (golden CSV)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin ext_qos -- --smoke > /dev/null
    git diff --exit-code -- results/ext_qos_smoke.csv
'

# KV-cache smoke: reduced hot-set sweep, byte-diffed against the golden
# CSV; the binary also self-asserts the overflow-tier speedup (>= 5x at
# the smallest hot set) and exits nonzero if it regresses.
step "ext_kv_cache smoke (golden CSV)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin ext_kv_cache -- --smoke > /dev/null
    git diff --exit-code -- results/ext_kv_cache_smoke.csv
'

# LLM serving smoke: the reduced conversation-stream sweep must be
# byte-identical to the committed golden CSV (virtual-clock determinism)
# and its built-in acceptance check must pass (tiered p99 TTFT >= 5x
# better than the disk-offload baseline at the largest session count).
step "ext_llm_serving smoke (golden CSV)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin ext_llm_serving -- --smoke > /dev/null
    git diff --exit-code -- results/ext_llm_serving_smoke.csv
'

# LLM serving perf smoke: wall-clock of the three engines against the
# committed baseline with the same gross 3x tolerance as perf.rs.
step "ext_llm_serving perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin ext_llm_serving -- --perf --check results/BENCH_llm_baseline.json

# Object-allocator smoke: the reduced granularity sweep must be
# byte-identical to the committed golden CSV, and the binary
# self-asserts the amplification acceptance gate (the page path moves
# >= 10x the fabric bytes of the object path on uniform-small) —
# nonzero exit otherwise.
step "ext_obj_alloc smoke (golden CSV + 10x gate)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin ext_obj_alloc -- --smoke > /dev/null
    git diff --exit-code -- results/ext_obj_alloc_smoke.csv
'

# Object-allocator perf smoke: wall-clock of both granularities against
# the committed baseline with the same gross 3x tolerance as perf.rs.
step "ext_obj_alloc perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin ext_obj_alloc -- --perf --check results/BENCH_alloc_baseline.json

# Crossover smoke: the reduced RDMA/CXL/NVM sweep must be byte-identical
# to the committed golden CSV, and the binary self-asserts the §VI
# three-way split (every transport wins at least one working-set x
# granularity cell) — nonzero exit otherwise.
step "ext_crossover smoke (golden CSV + three-way gate)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin ext_crossover -- --smoke > /dev/null
    git diff --exit-code -- results/ext_crossover_smoke.csv
'

# Crossover perf smoke: wall-clock of the page-granularity column on all
# three transports against the committed baseline, same 3x tolerance.
step "ext_crossover perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin ext_crossover -- --perf --check results/BENCH_cxl_baseline.json

# The chaos sweep with the CXL pool tier armed: pool-node outage windows
# and remote atomics on every seed, judged by the shadow-read and
# atomics-exact invariants on top of the originals. Run at --jobs 1 vs
# --jobs 4 and diffed — outages, failover reads, atomic sums and the
# cxl.* metric digests must be byte-identical regardless of fan-out.
step "cxl chaos smoke (seeds 0..32, --jobs 1 vs 4 determinism gate)" sh -c '
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --cxl --jobs 1 \
        > target/chaos_cxl_a.txt
    cargo run --release --quiet --bin chaos -- --seeds 0..32 --cxl --jobs 4 \
        > target/chaos_cxl_b.txt
    diff target/chaos_cxl_a.txt target/chaos_cxl_b.txt
'

# dmem_top --cxl: the CXL pool report is pinned byte-for-byte by the
# dmem_top_cxl_golden test; regenerate the fixture here so drift shows
# up as a git diff in CI logs too.
step "dmem_top --cxl (golden report)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin dmem_top -- --cxl \
        > results/dmem_top_cxl.txt
    git diff --exit-code -- results/dmem_top_cxl.txt
'

# dmem_top --alloc: the object-allocator report is pinned byte-for-byte
# by the dmem_top_alloc_golden test; regenerate the fixture here so
# drift shows up as a git diff in CI logs too.
step "dmem_top --alloc (golden report)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin dmem_top -- --alloc \
        > results/dmem_top_alloc.txt
    git diff --exit-code -- results/dmem_top_alloc.txt
'

# dmem_top --kv: the tiered-KV occupancy report is pinned byte-for-byte
# by the dmem_top_kv_golden test; regenerate the fixture here so drift
# shows up as a git diff in CI logs too.
step "dmem_top --kv (golden report)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin dmem_top -- --kv \
        > results/dmem_top_kv.txt
    git diff --exit-code -- results/dmem_top_kv.txt
'

# dmem_top --all: the combined one-pass report (traced qos + tiered KV +
# rack timeline sparklines + chaos alert log + allocator + CXL pool) is
# pinned byte-for-byte by the dmem_top_all_golden test; regenerate here
# so drift shows in CI logs.
step "dmem_top --all (golden report)" sh -c '
    cargo run --release --quiet -p dmem-bench --bin dmem_top -- --all \
        > results/dmem_top_all.txt
    git diff --exit-code -- results/dmem_top_all.txt
'

# Traced fig4: one telemetry-enabled pass exporting a Chrome-trace JSON,
# then validate the artifact (parses, trace-event shaped, spans from >= 4
# simulation layers). Guards the zero-cost-when-disabled contract's other
# half: tracing, when on, actually observes the whole stack.
step "traced fig4 + trace check" sh -c '
    cargo run --release --quiet -p dmem-bench --bin fig4 -- \
        --trace-out results/fig4_trace.json --metrics-out results/fig4_metrics.txt
    cargo run --release --quiet -p dmem-bench --bin dmem_top -- \
        --check-trace results/fig4_trace.json
'

# Perf smoke: quick variants of the three wall-clock scenarios, compared
# against the checked-in baseline with a 3x tolerance — catches gross
# algorithmic regressions, not percent-level noise.
step "perf smoke (3x tolerance)" \
    cargo run --release --quiet -p dmem-bench --bin perf -- --quick --check results/BENCH_perf_baseline.json

echo "==> ci.sh: all green"
