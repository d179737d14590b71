#!/bin/sh
# Tier-1 CI: build, test suite, bench smoke, and a telemetry smoke run
# whose emitted JSONL is validated with the library's own parser.
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== library reachability =="
# Every library under lib/ must be linked by another library or by a
# program outside the tests and examples (bin/, bench/, benchmark/,
# tools/).  A library that only tests or examples link is code that no
# experiment, CLI command or benchmark runs.
libraries_of() {
  tr '\n' ' ' < "$1" | grep -o '(libraries[^)]*)' | tr '() ' '\n\n\n'
}
unreached=0
for f in lib/*/dune; do
  for lib in $(tr '\n' ' ' < "$f" | grep -o '(name [^)]*)' | sed 's/(name \(.*\))/\1/'); do
    for g in lib/*/dune bin/dune bench/dune benchmark/dune tools/dune; do
      test "$g" = "$f" || libraries_of "$g"
    done | grep -qx "$lib" || { echo "unreached library: $lib ($f)"; unreached=1; }
  done
done
test "$unreached" -eq 0

echo "== tests =="
dune runtest

echo "== docs =="
# Documentation must at least assemble.  With no public library names
# and no odoc in the container the alias is currently empty (and so
# trivially green), but the gate keeps doc rules from rotting silently
# once either appears.
dune build @doc

echo "== bench smoke =="
# Every section writes BENCH_pdht.json through one splice, so a block
# written before perf must survive perf's run.
dune exec bench/main.exe -- scale --scale-max 1000 table1 perf > /dev/null
test -f BENCH_pdht.json
dune exec tools/validate_jsonl.exe -- BENCH_pdht.json
grep -q '"scale"' BENCH_pdht.json

echo "== perf guardrail =="
# The perf section just ran as part of the bench smoke; hold its output
# to the runner's two contracts.  (1) Batch output must be identical
# across --jobs values.  (2) The parallel batch must never be
# meaningfully slower than the sequential one: on multi-core machines it
# should win, and on a single core the hardware clamp makes it run
# inline, so a large regression here means the clamp broke and domains
# are thrashing the stop-the-world GC.  The 1.5x factor is generous on
# purpose — this is a smoke test on shared CI boxes, not a benchmark.
grep -q '"identical_reports": *true' BENCH_pdht.json
wall_single=$(grep -o '"wall_single_s": *[0-9.eE+-]*' BENCH_pdht.json | awk -F: '{print $2}')
wall_parallel=$(grep -o '"wall_parallel_s": *[0-9.eE+-]*' BENCH_pdht.json | awk -F: '{print $2}')
echo "wall_single_s=$wall_single wall_parallel_s=$wall_parallel"
awk -v s="$wall_single" -v p="$wall_parallel" \
  'BEGIN { if (!(s > 0) || !(p > 0)) exit 1; exit (p <= 1.5 * s) ? 0 : 1 }'
# A storage put (an overwrite, which relinks the entry in the expiry
# list) plus a get may allocate only the [Some] the get returns: 2
# words.  More means the put path started boxing.
put_get_words=$(grep -o '"storage_put_get_minor_words_per_op": *[0-9.eE+-]*' BENCH_pdht.json | awk -F: '{print $2}')
echo "storage_put_get_minor_words_per_op=$put_get_words"
awk -v w="$put_get_words" 'BEGIN { exit (w != "" && w <= 2) ? 0 : 1 }'

echo "== network model =="
# The perf section also ran the network-model contracts: a zero-cost
# net (zero latency, zero loss) must reproduce the no-net report field
# for field, and the 0 -> 20% loss sweep must have completed without an
# unhandled exception (its rows land in the same JSON).
grep -q '"zero_cost_net_equivalent": *true' BENCH_pdht.json
grep -q '"loss_sweep"' BENCH_pdht.json
# Byte-level anchor for non-constant latency: every other pinned net
# run uses constant links, so the lognormal sampler (two draws per
# surviving leg) and the retry ladder under it are pinned here.
lgn=$(mktemp -d)
trap 'rm -rf "$lgn"' EXIT INT TERM
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  --latency lognormal:-3.5:0.5 --loss 0.05 --rpc-timeout 0.5 --churn \
  --bucket-refresh 30 > "$lgn/lognormal-report.txt"
diff "$lgn/lognormal-report.txt" test/golden/lognormal_net_report.txt
rm -rf "$lgn"

echo "== fault gate =="
# The perf section also ran the fault contracts (in the same JSON):
# an empty fault plan must reproduce the no-fault report field for
# field, the 0 -> 50% crash sweep must have completed, and E21-small
# (30% mass crash with anti-entropy repair) must have recovered —
# finite time-to-recover, i.e. some post-fault bucket back within 5%
# of the pre-fault service rate.  The -j 1 vs -j 4 byte-identity of
# fault-enabled runs is a qcheck property in test_fault (runs under
# "dune runtest" above).
grep -q '"no_fault_equivalent": *true' BENCH_pdht.json
grep -q '"crash_sweep"' BENCH_pdht.json
grep -q '"fault_recovered": *true' BENCH_pdht.json

echo "== selection policy gate =="
# The perf section raced the selection policies (same JSON).  Two
# contracts: (1) the default [Ttl Model_derived] policy must be
# indistinguishable from the pre-policy system — an explicit spec
# builds the very options the defaults carry and installs no selector —
# and (2) in the E23 flash-crowd race at least one adaptive
# policy must beat the static model-derived TTL on post-shift cost.
grep -q '"policy_default_equivalent": *true' BENCH_pdht.json
grep -q '"policy_adaptive_beats_static": *true' BENCH_pdht.json
grep -q '"policy_race"' BENCH_pdht.json
# Byte-level anchor for the same contract: the default-policy CLI report
# is pinned against a golden file committed before the policy axis
# existed.  Any drift here means the selection_policy redesign perturbed
# the default code path.
pol=$(mktemp -d)
trap 'rm -rf "$pol"' EXIT INT TERM
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  > "$pol/default-report.txt"
diff "$pol/default-report.txt" test/golden/default_policy_report.txt
# An explicit --policy ttl spells the same default and must also match.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  --policy ttl > "$pol/ttl-report.txt"
diff "$pol/ttl-report.txt" test/golden/default_policy_report.txt
# And the cost spec must install its selector (its report carries the
# policy summary line; run long enough for one retune) and reproduce its
# golden rendering byte for byte.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 400 \
  --policy cost > "$pol/cost-report.txt"
diff "$pol/cost-report.txt" test/golden/cost_policy_report.txt
# The adaptive spec through the CLI (test_policy pins the System.run
# path against the same golden).
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 400 \
  --policy ttl:adaptive > "$pol/adaptive-report.txt"
diff "$pol/adaptive-report.txt" test/golden/adaptive_policy_report.txt
# Specs outside the grammar are a usage error (cmdliner exit code 124).
status=0
dune exec bin/pdht_cli.exe -- simulate --policy learned > /dev/null 2>&1 || status=$?
test "$status" -eq 124

echo "== parallel determinism =="
# The runner's contract: any --jobs value yields byte-identical output.
par=$(mktemp -d)
trap 'rm -rf "$pol" "$par"' EXIT INT TERM
dune exec bench/main.exe -- -j 1 seeds > "$par/seeds-j1.txt"
dune exec bench/main.exe -- -j 4 seeds > "$par/seeds-j4.txt"
diff "$par/seeds-j1.txt" "$par/seeds-j4.txt"

echo "== telemetry smoke =="
out=$(mktemp -d)
trap 'rm -rf "$pol" "$par" "$out"' EXIT INT TERM
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 120 \
  --metrics-out "$out/metrics.jsonl" --trace-out "$out/trace.jsonl" > /dev/null
dune exec tools/validate_jsonl.exe -- "$out/metrics.jsonl" "$out/trace.jsonl"
# Same smoke with the network model on: the net.* trace events must be
# well-formed JSONL and actually present, and the report must carry the
# net summary line.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 120 \
  --latency 0.02 --loss 0.1 --rpc-timeout 0.5 --rpc-retries 2 \
  --metrics-out "$out/net-metrics.jsonl" --trace-out "$out/net-trace.jsonl" \
  > "$out/net-report.txt"
dune exec tools/validate_jsonl.exe -- "$out/net-metrics.jsonl" "$out/net-trace.jsonl"
grep -q '"cat":"net"' "$out/net-trace.jsonl"
grep -q 'net: sent=' "$out/net-report.txt"
# Byte-level anchor for the net path: a lossy, churning, live-routing
# run exercises every rung of the RPC retry ladder and is pinned
# against a golden rendering.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  --latency 0.02 --loss 0.1 --rpc-timeout 0.5 --rpc-retries 2 \
  --churn weibull:up=600:down=200:shape=0.6 --bucket-refresh 30 \
  > "$out/lossy-report.txt"
diff "$out/lossy-report.txt" test/golden/lossy_net_report.txt
# The bare --churn flag (exponential sessions, the historical default)
# is pinned too: the one end-to-end run of exponential-session churn.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  --churn > "$out/exp-churn-report.txt"
diff "$out/exp-churn-report.txt" test/golden/exp_churn_report.txt
# Wide replica subnets: 200-member groups built on the query path and
# flooded (~1.1 M replica-flood messages) while churn takes members
# offline.  Every other pinned run floods groups of 20.
dune exec bin/pdht_cli.exe -- simulate --peers 20000 --keys 500 --repl 200 \
  --duration 120 --churn weibull:up=600:down=200:shape=0.6 \
  > "$out/wide-subnet-report.txt"
diff "$out/wide-subnet-report.txt" test/golden/wide_subnet_report.txt
# Set-up state: digests of the key ids, content placements, overlay
# adjacency and next draw that Pdht.create builds at the benchmark's
# cold-keys and scale-100k shapes.
dune exec tools/report_fixture.exe -- setup-state > "$out/setup-state.txt"
diff "$out/setup-state.txt" test/golden/setup_state.txt
# And with fault injection on: the fault trace events must be present
# and well-formed, the report must carry the fault block, and the
# repair counters must be live.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  --fault 'crash:0.3@120+60' --fault-repair 30 --fault-check \
  --metrics-out "$out/fault-metrics.jsonl" --trace-out "$out/fault-trace.jsonl" \
  > "$out/fault-report.txt"
dune exec tools/validate_jsonl.exe -- "$out/fault-metrics.jsonl" "$out/fault-trace.jsonl"
grep -q '"cat":"fault"' "$out/fault-trace.jsonl"
grep -q 'fault: crashes=' "$out/fault-report.txt"
grep -q 'repair: passes=' "$out/fault-report.txt"
# The same crash wave on live Kademlia tables (--bucket-refresh turns
# them on): the only end-to-end run in which living k-buckets are
# forgotten and rebuilt, pinned against a golden rendering.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  --fault 'crash:0.3@120+60' --fault-repair 30 --fault-check --bucket-refresh 30 \
  > "$out/kademlia-fault-report.txt"
diff "$out/kademlia-fault-report.txt" test/golden/kademlia_fault_report.txt

echo "== causal tracing gate =="
# Every sampled query in an unfiltered trace must reconstruct as a
# rooted span tree: zero orphan spans, and each root's message count
# equal to the sum over its message-bearing leaves.  trace_stats
# --check turns both invariants (plus "at least one tree") into an
# exit code.  The timeline JSONL must pass the same validator the
# tests use.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 120 \
  --latency 0.02 --loss 0.1 --rpc-timeout 0.5 --rpc-retries 2 \
  --trace-out "$out/causal-trace.jsonl" --trace-sample 1 \
  --timeline-out "$out/timeline.jsonl" --timeline-window 30 \
  > "$out/causal-report.txt"
dune exec tools/trace_stats.exe -- --check "$out/causal-trace.jsonl"
dune exec tools/validate_jsonl.exe -- "$out/causal-trace.jsonl" "$out/timeline.jsonl"
grep -q '"tl":0' "$out/timeline.jsonl"
grep -q 'timeline: windows=' "$out/causal-report.txt"

echo "== tracing overhead gate =="
# The perf section measures the cost of the tracing plumbing with the
# tracer disabled (the default for every run that doesn't pass
# --trace-out): it must stay within 2% of the pre-instrumentation
# baseline, re-measured in the same process to cancel host noise.
grep -q '"tracing_disabled_within_2pct": *true' BENCH_pdht.json
frac=$(grep -o '"disabled_overhead_frac": *[0-9.eE+-]*' BENCH_pdht.json | awk -F: '{print $2}')
echo "disabled_overhead_frac=$frac"
awk -v f="$frac" 'BEGIN { exit (f <= 0.02) ? 0 : 1 }'

echo "== scale smoke gate =="
# Flat-representation contract at a tenth of the full sweep: the decade
# sweep up to 10^5 peers must finish inside a 10-minute wall budget and
# a 2 GB high-water RSS, bytes/peer must not regress by more than 10%
# decade-over-decade (the bench folds that rule into
# bytes_per_peer_flat) nor pass 160 at 10^5, hops must track log N, and
# the in-place expiry sweep must still be allocation-free.  The scale
# section splices its block into the BENCH_pdht.json the perf section
# wrote above; the merged file must still be valid JSON.
scale_t0=$(date +%s)
dune exec bench/main.exe -- scale --scale-max 100000 > /dev/null
scale_t1=$(date +%s)
scale_wall=$((scale_t1 - scale_t0))
echo "scale --scale-max 100000 wall=${scale_wall}s"
test "$scale_wall" -le 600
dune exec tools/validate_jsonl.exe -- BENCH_pdht.json
grep -q '"bytes_per_peer_flat": *true' BENCH_pdht.json
grep -q '"hops_track_log_n": *true' BENCH_pdht.json
grep -q '"storage_expire_alloc_free": *true' BENCH_pdht.json
scale_rss=$(grep -o '"peak_rss_mb": *[0-9.eE+-]*' BENCH_pdht.json | awk -F: '{print $2}')
echo "scale peak_rss_mb=$scale_rss"
awk -v r="$scale_rss" 'BEGIN { exit (r > 0 && r <= 2048) ? 0 : 1 }'
# The 10^5 decade's bytes/peer is a compacted live-heap delta, so it is
# deterministic for a given binary: 208 with a per-peer copy of every
# placement, 140 without.  Hold it at 160.
scale_bpp=$(grep -o '"peers": *100000,[^}]*' BENCH_pdht.json \
  | grep -o '"bytes_per_peer": *[0-9.eE+-]*' | awk -F: '{print $2}')
echo "scale 10^5 bytes_per_peer=$scale_bpp"
awk -v b="$scale_bpp" 'BEGIN { exit (b > 0 && b <= 160) ? 0 : 1 }'

echo "== cluster smoke gate =="
# Simulator-vs-processes equivalence (DESIGN §14, E25): an 8-process
# loopback cluster run must print the same-seed simulator report byte
# for byte, every per-node JSONL file must pass the schema validator
# (including the node_id stamp), and the merged registry must carry the
# workers' proc.* traffic counters.
clu=$(mktemp -d)
trap 'rm -rf "$pol" "$par" "$out" "$clu"' EXIT INT TERM
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 120 \
  > "$clu/sim-report.txt"
dune exec bin/pdht_cli.exe -- cluster --nodes 8 --peers 200 --keys 300 \
  --duration 120 --obs-dir "$clu/obs" > "$clu/cluster-report.txt"
diff "$clu/sim-report.txt" "$clu/cluster-report.txt"
test "$(ls "$clu"/obs/node-*.jsonl | wc -l)" -eq 8
dune exec tools/validate_jsonl.exe -- "$clu"/obs/node-*.jsonl "$clu/obs/merged.jsonl"
grep -q '"name":"proc.frames_in"' "$clu/obs/merged.jsonl"
grep -q '"node_id":0' "$clu/obs/node-0.jsonl"
# The index size is one Census frame per worker per sample (3 samples x
# 8 workers, counted as probes), not a Get per replica: pin the store
# traffic so a per-key scan cannot creep back in.
proc_counter() {
  grep -o "\"name\":\"$1\",\"value\":[0-9]*" "$clu/obs/merged.jsonl" | awk -F: '{print $NF}'
}
echo "proc.gets=$(proc_counter proc.gets) proc.probes=$(proc_counter proc.probes) proc.puts=$(proc_counter proc.puts)"
test "$(proc_counter proc.gets)" -eq 2942
test "$(proc_counter proc.probes)" -eq 24
test "$(proc_counter proc.puts)" -eq 2292
# cluster declares its workload flags through the same term as
# simulate, so a cost-policy cluster run prints the cost golden too.
dune exec bin/pdht_cli.exe -- cluster --nodes 2 --peers 200 --keys 300 \
  --duration 400 --policy cost > "$clu/cluster-cost-report.txt"
diff "$clu/cluster-cost-report.txt" test/golden/cost_policy_report.txt
# --policy is the one way to set keyTtl, sweep takes no simulator
# flags, and E14's eviction axis is gone: the removed flags and bench
# section are usage errors (cmdliner exit code 124).
for removed in "bin/pdht_cli.exe -- simulate --key-ttl 30" \
  "bin/pdht_cli.exe -- simulate --adaptive" "bin/pdht_cli.exe -- sweep --loss 0.1" \
  "bench/main.exe -- eviction"; do
  status=0
  dune exec $removed > /dev/null 2>&1 || status=$?
  test "$status" -eq 124
done
# Multi-node causal traces: the analyzer must merge per-node files by
# (node_id, span) — two differently-stamped copies of one trace are
# 2x the trees with zero duplicate-span collisions.
sed 's/^{/{"node_id":0,/' "$out/causal-trace.jsonl" > "$clu/trace-n0.jsonl"
sed 's/^{/{"node_id":1,/' "$out/causal-trace.jsonl" > "$clu/trace-n1.jsonl"
dune exec tools/validate_jsonl.exe -- "$clu/trace-n0.jsonl" "$clu/trace-n1.jsonl"
dune exec tools/trace_stats.exe -- --check "$clu/trace-n0.jsonl" "$clu/trace-n1.jsonl" \
  > "$clu/trace-merged.txt"
grep -q 'duplicate span ids: 0' "$clu/trace-merged.txt"

echo "== churn routing gate =="
# E26 (DESIGN §15): per decade of mean session length the living
# k-buckets must beat the frozen tables on the stale-route rate while
# spending the exact same measured maintenance budget, and stay within
# 5% of the no-churn success ceiling.  The section computes the three
# contracts over its own rows and splices them as booleans; churn runs
# must also be byte-identical across --jobs values.
chu=$(mktemp -d)
trap 'rm -rf "$pol" "$par" "$out" "$clu" "$chu"' EXIT INT TERM
dune exec bench/main.exe -- -j 1 churn_routing > "$chu/churn-j1.txt"
dune exec bench/main.exe -- -j 4 churn_routing > "$chu/churn-j4.txt"
diff "$chu/churn-j1.txt" "$chu/churn-j4.txt"
# A change that moves both --jobs runs alike would pass the diff above;
# the table is deterministic, so pin it as a golden too.
diff "$chu/churn-j1.txt" test/golden/churn_routing.txt
dune exec tools/validate_jsonl.exe -- BENCH_pdht.json
grep -q '"churn"' BENCH_pdht.json
grep -q '"live_beats_frozen_stale_route": *true' BENCH_pdht.json
grep -q '"live_within_success_floor": *true' BENCH_pdht.json
grep -q '"equal_maintenance_budget": *true' BENCH_pdht.json
# The heavy-tailed session axis end to end: a live-table CLI run with a
# Weibull spec must complete and report the live-routing block, and the
# same spec must parse inside a fault-plan churn clause.
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 120 \
  --churn weibull:up=600:down=200:shape=0.6 --bucket-refresh 30 \
  > "$chu/live-report.txt"
grep -q 'churn' "$chu/live-report.txt"
dune exec bin/pdht_cli.exe -- simulate --peers 200 --keys 300 --duration 240 \
  --fault 'churn:weibull:up=60:down=30:shape=0.6@60+120' --fault-check \
  > "$chu/fault-churn-report.txt"
grep -q 'fault:' "$chu/fault-churn-report.txt"

echo "CI OK"
