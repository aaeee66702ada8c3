#!/usr/bin/env bash
# Local CI: the tier-1 gate plus formatting and lint checks.
#
#   ./ci.sh        # everything
#   ./ci.sh fast   # skip the release build (debug tests + fmt + clippy)
set -euo pipefail
cd "$(dirname "$0")"

fast=${1:-}

# Every step below must leave the working tree as it found it: the
# status is compared again at the end.
tree_status=$(git status --porcelain)

if [[ "$fast" != "fast" ]]; then
    echo "== tier-1 gate: release build =="
    cargo build --release
fi

echo "== tier-1 gate: tests =="
cargo test -q

echo "== rustfmt =="
cargo fmt --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== perfbench: builds against this tree with its lock file unchanged =="
# The benchmark is a workspace of its own over the repository's crates.
# An API change that breaks its build fails here, in fast mode too, and
# --locked refuses to rewrite perfbench/Cargo.lock.
CARGO_TARGET_DIR=.bench_build cargo check --locked --offline --manifest-path perfbench/Cargo.toml

echo "== conformance smoke: fast checkers vs oracles =="
# Seeded-mutation self-test first (proves the harness can catch a bug),
# then the bounded sweep + 200 random cases + harvested executions.
# Exits nonzero with the shrunk witness printed inline on any
# disagreement. Budget: well under 60s (about 1s in debug).
if [[ "$fast" != "fast" ]]; then
    ./target/release/ccmm conformance --self-test
else
    cargo run -q --bin ccmm -- conformance --self-test
fi

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

if [[ "$fast" != "fast" ]]; then
    echo "== perf: perfbench on this tree vs HEAD, same host, alternated =="
    # HEAD is the parent of the uncommitted work under test. Both sides
    # run the perfbench sweep-b5 (Figure-1 / Theorem 23 verdict sweep)
    # and watch-matmul workloads for 5 s each, in 3 pairs that alternate
    # which side goes first. Any run with a wrong answer or a failed
    # operation fails CI, and so does a tree median verdict_s (median
    # unit wall) more than 2x the HEAD median on either workload.
    # Skipped in fast mode: debug-build timings are noise.
    base="$scratch/base"
    mkdir "$base"
    git archive HEAD | tar -x -C "$base"
    perf_run() {  # side dir, workload, output file, CARGO_TARGET_DIR
        local out
        out=$(CARGO_TARGET_DIR="$4" python3 "$1/perfbench/run.py" \
            --workload "$2" --seed 1 --seconds 5 | tail -1) \
            || { echo "perfbench $2 ($1) did not run"; exit 1; }
        jq -e '.correct == true and .failed == 0' <<< "$out" > /dev/null \
            || { echo "perfbench $2 ($1): $out"; exit 1; }
        jq '.metrics.verdict_s.value' <<< "$out" >> "$3"
    }
    perf_workloads=(sweep-b5 watch-matmul)
    for pair in 1 2 3; do
        sides=(base tree)
        if (( pair % 2 == 0 )); then sides=(tree base); fi
        for w in "${perf_workloads[@]}"; do
            for side in "${sides[@]}"; do
                if [[ "$side" == base ]]; then
                    perf_run "$base" "$w" "$scratch/perf-base-$w" "$scratch/base-target"
                else
                    perf_run . "$w" "$scratch/perf-tree-$w" "${CARGO_TARGET_DIR:-}"
                fi
            done
        done
    done
    median() { sort -g "$1" | sed -n 2p; }  # the middle of 3 runs
    for w in "${perf_workloads[@]}"; do
        t=$(median "$scratch/perf-tree-$w")
        b=$(median "$scratch/perf-base-$w")
        echo "$w verdict_s median: tree $t s, HEAD $b s"
        jq -ne "$t <= 2 * $b" > /dev/null \
            || { echo "perf FAILED: $w is more than 2x slower than HEAD"; exit 1; }
    done
fi

if [[ "$fast" != "fast" ]]; then
    echo "== perf census: traced sweep-b5 run is correct and prints every metric =="
    # perfbench prints a non-finite metric (a census ratio whose
    # denominator is 0) as null, and a null metric makes the run's
    # result line unusable. The traced run also exercises every census
    # counter; any wrong answer, failed operation or null metric fails.
    census=$(python3 perfbench/run.py --workload sweep-b5 --seed 1 --seconds 5 --trace 1 \
        | tail -1) || { echo "traced perfbench sweep-b5 did not run"; exit 1; }
    jq -e '.correct == true and .failed == 0 and all(.metrics[]; .value != null)' \
        <<< "$census" > /dev/null \
        || { echo "traced perfbench sweep-b5: $census"; exit 1; }
fi

echo "== robustness smoke: panic quarantine + kill/resume round trip =="
if [[ "$fast" != "fast" ]]; then
    ccmm() { ./target/release/ccmm "$@"; }
    ccmm_bin=./target/release/ccmm
else
    ccmm() { cargo run -q --bin ccmm -- "$@"; }
    # The serve smoke TERMs the daemon by pid, so it needs the real
    # binary, not a shell function (killing the wrapper subshell would
    # orphan the daemon instead of draining it).
    cargo build -q --bin ccmm
    ccmm_bin=./target/debug/ccmm
fi

# 1. Injected persistent panic: the sweep must complete degraded (exit 3)
#    with the quarantined task reported and all phases still run.
rc=0
ccmm sweep --bound 3 --canonical --threads 2 --fault panic-at-task=1 \
    > "$scratch/degraded.out" 2>/dev/null || rc=$?
[[ "$rc" == 3 ]] || { echo "expected degraded exit 3, got $rc"; exit 1; }
grep -q "quarantined: memberships task 1" "$scratch/degraded.out"
grep -q "sweep status: degraded" "$scratch/degraded.out"

# 2. Kill after two checkpoint records (exit 70), then --resume: the
#    membership counts must be bit-identical to an uninterrupted run.
ccmm sweep --bound 4 --canonical --threads 2 > "$scratch/clean.out" 2>/dev/null
rc=0
ccmm sweep --bound 4 --canonical --threads 2 --ckpt "$scratch/sweep.ckpt" \
    --ckpt-every 1 --fault kill-after-ckpt=2 > "$scratch/killed.out" 2>/dev/null || rc=$?
[[ "$rc" == 70 ]] || { echo "expected killed exit 70, got $rc"; exit 1; }
ccmm sweep --bound 4 --canonical --threads 2 --resume "$scratch/sweep.ckpt" \
    > "$scratch/resumed.out" 2>/dev/null
counts() { grep -A6 "^memberships over" "$1" | tail -6; }
diff <(counts "$scratch/clean.out") <(counts "$scratch/resumed.out") \
    || { echo "resumed counts differ from the uninterrupted run"; exit 1; }

echo "== lane engine smoke: scalar parity, thread determinism, kill/resume =="
# The lane64 engine must produce bit-identical membership counts,
# Figure-1 lattice block, NN* fixpoint line (survivors, deleted, passes)
# and six constructibility lines to the scalar canonical engine at
# bound 5, at 1, 2, and 4 threads — and a lane run killed mid-flight
# must resume to the same. Debug-build bound-5 sweeps are slow, so fast
# mode drops to bound 4 (same paths).
lane_bound=5
[[ "$fast" == "fast" ]] && lane_bound=4
fixline() { sed -n 's/.*fixpoint: \(.*\) \[.*/\1/p' "$1"; }
lattice() { grep -A7 "^lattice \[" "$1" | tail -7; }
constructibility() { grep -E "^  (SC|LC|NN|NW|WN|WW) +(NOT )?constructible" "$1"; }
# Every verdict block of a lane64 run against the scalar run.
lane_parity() {
    diff <(counts "$scratch/lane-scalar.out") <(counts "$1") \
        || { echo "lane64 counts diverge from scalar ($2)"; exit 1; }
    diff <(lattice "$scratch/lane-scalar.out") <(lattice "$1") \
        || { echo "lane64 lattice diverges from scalar ($2)"; exit 1; }
    diff <(fixline "$scratch/lane-scalar.out") <(fixline "$1") \
        || { echo "lane64 NN* fixpoint diverges from the scalar engine ($2)"; exit 1; }
    diff <(constructibility "$scratch/lane-scalar.out") <(constructibility "$1") \
        || { echo "lane64 constructibility diverges from scalar ($2)"; exit 1; }
}
ccmm sweep --bound "$lane_bound" --canonical --threads 1 \
    > "$scratch/lane-scalar.out" 2>/dev/null
[[ -n "$(fixline "$scratch/lane-scalar.out")" ]] \
    || { echo "scalar run printed no NN* fixpoint line"; exit 1; }
[[ "$(lattice "$scratch/lane-scalar.out" | wc -l)" == 7 ]] \
    || { echo "scalar run printed no lattice block"; exit 1; }
[[ "$(constructibility "$scratch/lane-scalar.out" | wc -l)" == 6 ]] \
    || { echo "scalar run printed no six constructibility lines"; exit 1; }
for t in 1 2 4; do
    ccmm sweep --bound "$lane_bound" --canonical --engine lane64 --threads "$t" \
        > "$scratch/lane-$t.out" 2>/dev/null
    lane_parity "$scratch/lane-$t.out" "$t threads"
done
rc=0
ccmm sweep --bound "$lane_bound" --canonical --engine lane64 --threads 2 \
    --ckpt "$scratch/lane.ckpt" --ckpt-every 1 --fault kill-after-ckpt=2 \
    > /dev/null 2>&1 || rc=$?
[[ "$rc" == 70 ]] || { echo "expected lane64 killed exit 70, got $rc"; exit 1; }
ccmm sweep --bound "$lane_bound" --canonical --engine lane64 --threads 2 \
    --resume "$scratch/lane.ckpt" > "$scratch/lane-resumed.out" 2>/dev/null
lane_parity "$scratch/lane-resumed.out" "after kill/resume"

echo "== fixpoint smoke: bound-4 kill in both phases, resume bit-identical, both engines =="
# Both engines run the mask Δ* fixpoint and journal its survivor masks
# to <ckpt>.fixpoint. The canonical bound-4 universe is 25 tasks, so
# --ckpt-every 16 writes exactly one record per phase: run 1 is killed
# by the memberships record; run 2 resumes, finishes memberships without
# a new record (9 tasks < 16), and is killed by the fixpoint journal's
# first record; run 3 resumes the masks and must complete with survivor
# counts bit-identical to both an uninterrupted run of the same engine
# and the uninterrupted scalar run above.
for engine in scalar lane64; do
    fix_sweep() { ccmm sweep --bound 4 --canonical --threads 2 --engine "$engine" "$@"; }
    fix_sweep > "$scratch/fix-clean-$engine.out" 2>/dev/null
    rc=0
    fix_sweep --ckpt "$scratch/fix-$engine.ckpt" --ckpt-every 16 --fault kill-after-ckpt=1 \
        > /dev/null 2>&1 || rc=$?
    [[ "$rc" == 70 ]] || { echo "expected $engine memberships-phase kill exit 70, got $rc"; exit 1; }
    rc=0
    fix_sweep --resume "$scratch/fix-$engine.ckpt" --ckpt-every 16 --fault kill-after-ckpt=1 \
        > "$scratch/fix-killed-$engine.out" 2>/dev/null || rc=$?
    [[ "$rc" == 70 ]] || { echo "expected $engine fixpoint-phase kill exit 70, got $rc"; exit 1; }
    grep -q "fixpoint checkpoint record" "$scratch/fix-killed-$engine.out" \
        || { echo "$engine second kill did not land in the fixpoint phase"; exit 1; }
    fix_sweep --resume "$scratch/fix-$engine.ckpt" > "$scratch/fix-resumed-$engine.out" 2>/dev/null
    diff <(fixline "$scratch/fix-clean-$engine.out") <(fixline "$scratch/fix-resumed-$engine.out") \
        || { echo "resumed $engine fixpoint differs from the uninterrupted run"; exit 1; }
    diff <(fixline "$scratch/clean.out") <(fixline "$scratch/fix-resumed-$engine.out") \
        || { echo "resumed $engine fixpoint differs from the scalar engine"; exit 1; }
done

echo "== stress smoke: perturbed-executor conformance + seeded-mutation self-test =="
# The self-test proves the oracle has teeth (seeded skip-flush and
# skip-reconcile mutations must each be caught and shrunk, and the same
# seeds must pass unmutated); then a fixed-seed 200-iteration perturbed run at 4 threads
# must hold LC conformance end to end. Both are deterministic per
# (seed, iters, threads), so a failure here is replayable verbatim.
ccmm stress --self-test --seed 1 --iters 1 --threads 4 > "$scratch/stress-self.out" \
    || { cat "$scratch/stress-self.out"; echo "stress self-test failed"; exit 1; }
grep -q "caught, and clean executor passes" "$scratch/stress-self.out"
ccmm stress --seed 20260808 --iters 200 --threads 4 > "$scratch/stress.out" \
    || { cat "$scratch/stress.out"; echo "stress smoke failed"; exit 1; }
grep -q "completed 200/200" "$scratch/stress.out"

echo "== telemetry smoke: counters deterministic across thread counts =="
# --metrics counter values for the memberships, lattice, and fixpoint
# phases must be bit-identical at 1, 2, and 4 threads (DESIGN.md §9); the
# constructibility phase early-exits and is coverage-dependent, so it is
# excluded. The trace file must be valid JSONL.
for t in 1 2 4; do
    ccmm sweep --bound 4 --canonical --threads "$t" \
        --metrics "$scratch/metrics-$t.json" --trace "$scratch/trace-$t.jsonl" \
        > /dev/null 2>&1
    jq -e . "$scratch/metrics-$t.json" > /dev/null \
        || { echo "metrics-$t.json is not valid JSON"; exit 1; }
    jq -es . "$scratch/trace-$t.jsonl" > /dev/null \
        || { echo "trace-$t.jsonl is not valid JSONL"; exit 1; }
    jq -S '[.phases[] | select(.name == "memberships" or .name == "lattice"
            or .name == "fixpoint") | {name, counters}]' \
        "$scratch/metrics-$t.json" > "$scratch/det-$t.json"
done
pairs=$(jq '.phases[0].counters.pairs_checked' "$scratch/metrics-1.json")
[[ "$pairs" -gt 0 ]] || { echo "pairs_checked is zero — counters not recording"; exit 1; }
for t in 2 4; do
    diff "$scratch/det-1.json" "$scratch/det-$t.json" \
        || { echo "deterministic-phase counters drifted at $t threads"; exit 1; }
done

# Same pin for the lane64 engine: the lattice pass's lane counters
# (lane_words, lane_slots) and the fixpoint phase's (lane_fixpoint_words,
# lane_deletions_masked, lane_survivor_pop) are in the deterministic class
# and must not drift with the thread count.
for t in 1 2 4; do
    ccmm sweep --bound 4 --canonical --engine lane64 --threads "$t" \
        --metrics "$scratch/lane-metrics-$t.json" > /dev/null 2>&1
    jq -S '[.phases[] | select(.name == "memberships" or .name == "lattice"
            or .name == "fixpoint") | {name, counters}]' \
        "$scratch/lane-metrics-$t.json" > "$scratch/lane-det-$t.json"
done
pop=$(jq '[.phases[] | select(.name == "fixpoint")
           | .counters.lane_survivor_pop] | first' "$scratch/lane-metrics-1.json")
[[ "$pop" -gt 0 ]] || { echo "lane_survivor_pop is zero — lane fixpoint counters not recording"; exit 1; }
for t in 2 4; do
    diff "$scratch/lane-det-1.json" "$scratch/lane-det-$t.json" \
        || { echo "lane64 deterministic-phase counters drifted at $t threads"; exit 1; }
done
echo "== watch smoke: streaming LC check, deadline kill + replay resume =="
# A fib:16 trace streams clean through the streaming BACKER runner with
# the on-the-fly checker (exit 0, zero streaming-vs-batch divergences);
# skip-reconcile and skip-flush runs must each detect the LC violation
# (exit 1, batch still agreeing on every sampled prefix); a zero-deadline run exits 4 with a
# node frontier and its journal resumes to verdicts bit-identical to the
# uninterrupted run.
ccmm watch --workload fib:16 > "$scratch/watch-clean.out" \
    || { cat "$scratch/watch-clean.out"; echo "watch clean run failed"; exit 1; }
grep -q "valid true | SC true | LC true" "$scratch/watch-clean.out"
grep -q " 0 divergence(s)" "$scratch/watch-clean.out"
rc=0
ccmm watch --workload fib:12 --fault skip-reconcile --sample-every 2 \
    > "$scratch/watch-fault.out" 2>/dev/null || rc=$?
[[ "$rc" == 1 ]] || { echo "expected faulted watch exit 1, got $rc"; exit 1; }
grep -q "LC false" "$scratch/watch-fault.out"
grep -q " 0 divergence(s)" "$scratch/watch-fault.out"
# matmul:8, not fib: fib:12 and fib:16 stay LC under skip-flush.
rc=0
ccmm watch --workload matmul:8 --fault skip-flush > "$scratch/watch-flush.out" 2>/dev/null \
    || rc=$?
[[ "$rc" == 1 ]] || { echo "expected skip-flush watch exit 1, got $rc"; exit 1; }
grep -q "LC false" "$scratch/watch-flush.out"
grep -q " 0 divergence(s)" "$scratch/watch-flush.out"
rc=0
ccmm watch --workload fib:16 --deadline-secs 0 --ckpt "$scratch/watch.ckpt" \
    > "$scratch/watch-part.out" 2>/dev/null || rc=$?
[[ "$rc" == 4 ]] || { echo "expected watch deadline exit 4, got $rc"; exit 1; }
grep -q "resume frontier: \[(0, " "$scratch/watch-part.out"
ccmm watch --workload fib:16 --resume "$scratch/watch.ckpt" \
    > "$scratch/watch-resumed.out" 2>/dev/null \
    || { echo "watch resume failed"; exit 1; }
verdicts() { grep -E "^(streamed|conformance:)" "$1"; }
diff <(verdicts "$scratch/watch-clean.out") <(verdicts "$scratch/watch-resumed.out") \
    || { echo "resumed watch verdicts differ from the uninterrupted run"; exit 1; }

echo "== serve smoke: faulted daemon, concurrent queries, graceful drain =="
# 1. Self-test: an injected handler panic on request 0 must come back as
#    a structured degraded reply, and the *same connection* must serve
#    the next request normally.
ccmm serve --self-test > "$scratch/serve-self.out"
grep -q "caught: " "$scratch/serve-self.out"
grep -q "same connection served normally" "$scratch/serve-self.out"

# 2. Daemon under the chaos-soak fault plan: ~1 in 5 requests is
#    panicked, dropped, truncated, or delayed. Clients retry transport
#    faults; verdicts must still match every corpus expectation.
"$ccmm_bin" serve --addr 127.0.0.1:0 --metrics "$scratch/serve-metrics.json" \
    --fault "panic=1/13,drop=1/17,truncate=1/19,delay=1/29:1,seed=42" \
    > "$scratch/serve.out" 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q "^listening on " "$scratch/serve.out" 2>/dev/null && break
    sleep 0.1
done
addr=$(sed -n 's/^listening on //p' "$scratch/serve.out")
[[ -n "$addr" ]] || { echo "serve never reported its address"; exit 1; }

# Fan the whole corpus out concurrently (one client per entry, plus a
# ping client), then check each served verdict table against the
# expectations the corpus file pins. A degraded reply (injected panic)
# exits 3; the client never retries a verdict-bearing reply itself, so
# the smoke re-asks — correctness says a re-ask can only ever produce
# the one true verdict table, and ten panics in a row is ~13^-10.
query_pids=()
for f in corpus/*.litmus; do
    stem="$scratch/$(basename "$f" .litmus)"
    awk '/^---$/{s++; next} s==0' "$f" > "$stem.comp"
    awk '/^---$/{s++; next} s==1' "$f" > "$stem.obs"
    (
        for _ in $(seq 1 10); do
            ccmm query --addr "$addr" --retries 10 --models "$stem.comp" "$stem.obs" \
                > "$stem.served" 2>/dev/null && exit 0
            [[ $? == 3 ]] || exit 1  # only a degraded reply is re-asked
        done
        exit 1
    ) &
    query_pids+=($!)
done
ccmm query --addr "$addr" --ping --retries 10 > "$scratch/ping.out" 2>/dev/null &
query_pids+=($!)
for pid in "${query_pids[@]}"; do
    wait "$pid" || { echo "a serve-smoke client failed"; exit 1; }
done
grep -qx "pong" "$scratch/ping.out"
for f in corpus/*.litmus; do
    stem="$scratch/$(basename "$f" .litmus)"
    awk '/^---$/{s++; next} s==2 && NF && $0 !~ /^#/' "$f" > "$stem.want"
    while read -r want; do
        grep -qxF "$want" "$stem.served" \
            || { echo "$f: served verdicts missing \"$want\""; \
                 cat "$stem.served"; exit 1; }
    done < "$stem.want"
done

# 3. SIGTERM → graceful drain: exit 0, stats printed, no leaked
#    connections (a leak makes the daemon itself exit nonzero).
kill -TERM "$serve_pid"
rc=0; wait "$serve_pid" || rc=$?
[[ "$rc" == 0 ]] || { echo "serve drain exited $rc"; cat "$scratch/serve.out"; exit 1; }
grep -q "drain requested" "$scratch/serve.out"
grep -q "drained: " "$scratch/serve.out"
grep -q "connections: " "$scratch/serve.out"
jq -e '.schema == "ccmm-metrics-v1"' "$scratch/serve-metrics.json" > /dev/null \
    || { echo "serve metrics lost the v1 schema tag"; exit 1; }
served=$(jq '[.phases[] | select(.name == "serve")
              | .counters.serve_requests] | first' "$scratch/serve-metrics.json")
[[ "$served" -gt 0 ]] || { echo "serve_requests counter is zero"; exit 1; }
# Each check/models request canonicalises its pair once (none for
# pings, parse errors or expired deadlines), so the count is positive
# and at most the request count.
canon=$(jq '[.phases[] | select(.name == "serve")
             | .counters.serve_canonicalisations] | first' "$scratch/serve-metrics.json")
[[ "$canon" -gt 0 && "$canon" -le "$served" ]] \
    || { echo "serve_canonicalisations ($canon) not in 1..serve_requests ($served)"; exit 1; }

# 4. The cache key's pruned prefix search must equal the full
#    linear-extension enumeration byte for byte on every pair of the
#    bound-5 × 1 and bound-4 × 2 universes plus 3,000 seeded 6–8-node
#    pairs. Release only: debug tier-1 runs the bound-4 × 2 part.
if [[ "$fast" != "fast" ]]; then
    cargo test -q --release -p ccmm-core --lib -- --ignored --exact \
        serve::tests::keys_match_oracle_on_bound5_and_bound4x2_universes
fi

# 5. The Q-dag word-mask kernel must report the between-set walk's
#    first violation triple, for all four predicates, on every pair of
#    the bound-5 × 1 universe. Release only: debug tier-1 runs the
#    bound-4 × 2 universe.
if [[ "$fast" != "fast" ]]; then
    cargo test -q --release -p ccmm-core --lib -- --ignored --exact \
        model::dagcons::tests::first_triple_matches_oracle_on_bound5_universe
fi

echo "== canonical posets: pruned automorphism search vs extension enumeration =="
# The sweep's canonical poset list (pruned search, down-set DP for e(P))
# must equal canon_info's linear-extension enumeration on every labelled
# poset of 7 nodes, and each representative's recorded automorphisms a
# brute force over all 7! permutations. Release only: debug tier-1
# covers up to 6 nodes.
if [[ "$fast" != "fast" ]]; then
    cargo test -q --release -p ccmm-dag --lib -- --ignored --exact \
        canon::tests::pruned_search_matches_enumeration_at_7_nodes
fi

echo "== canonical sweep: Aut(P) x S_k quotient vs labelled scan at bound 5 x 2 =="
# Memberships, lattice rows and every constructibility witness of the
# canonical sweep must equal the labelled scan's where both node and
# location symmetries act. Release only: debug tier-1 covers 3 x 3 and
# 4 x 2.
if [[ "$fast" != "fast" ]]; then
    cargo test -q --release --test sweep_determinism -- --ignored --exact \
        canonical_sweep_is_bit_identical_at_bound_5_with_two_locations
fi

echo "== second derivations: scalar engine at bound 6, memberships at bound 7 =="
# The canonical scalar engine shares no kernel with lane64, so its
# bound-6 run re-derives every headline number: stdout must match the
# lane64 run line for line once timings and engine names are masked.
# The bound-7 memberships (lane64 only) must reproduce the NN and
# SC = LC totals that the pre-quotient engine (one labelling per
# Aut(P) x S_k orbit, reads decided one by one) printed.
if [[ "$fast" != "fast" ]]; then
    mask() { sed -E 's/\[[^]]*\]/[T]/g; s/(lane64|canonical) enumeration/E enumeration/; s/NN\* (lane64|scalar) fixpoint/NN* E fixpoint/' "$1"; }
    ccmm sweep --bound 6 --canonical --engine scalar --threads 2 > "$scratch/b6-scalar.out"
    ccmm sweep --bound 6 --canonical --engine lane64 --threads 2 > "$scratch/b6-lane.out"
    diff <(mask "$scratch/b6-scalar.out") <(mask "$scratch/b6-lane.out") \
        || { echo "bound-6 scalar and lane64 sweeps diverge"; exit 1; }
    ccmm sweep --bound 7 --canonical --engine lane64 --threads 2 > "$scratch/b7.out"
    for want in "SC   5600586374" "LC   5600586374" "NN   6586438278"; do
        grep -qx "  $want" "$scratch/b7.out" \
            || { echo "bound-7 memberships lost \"$want\""; cat "$scratch/b7.out"; exit 1; }
    done
fi

echo "== clean tree: no step wrote into the repository =="
diff <(echo "$tree_status") <(git status --porcelain) \
    || { echo "the working tree changed during CI"; exit 1; }

echo "CI OK"
