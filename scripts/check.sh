#!/usr/bin/env bash
# The full quality gate: run before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== one failpoint registry: no bespoke environment switches =="
# Fault injection is configured only through TOWERLENS_FAILPOINTS,
# read in one place (crates/obs/src/failpoint.rs). A second
# environment read under crates/ is a new bespoke switch with its own
# grammar and its own silent-typo failure mode.
if grep -rn --include='*.rs' 'env::var' crates/ | grep -v '^crates/obs/src/failpoint.rs:'; then
    echo "env::var outside the failpoint registry (crates/obs/src/failpoint.rs)"; exit 1
fi

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== perfbench: build and test the benchmark =="
# perfbench is a workspace of its own, so the workspace build and test
# above never compile it; it calls the crates' public API, which a
# change to a public type or trait can break.
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

echo "== fault injection (pinned seeds) =="
# The robustness contract, end to end: seeded fault classes through
# the full pipeline, plus panic containment in its own process.
cargo test -q -p towerlens-cli --test fault_injection --test panic_isolation

echo "== chaos: crash/resume, transient I/O =="
# The supervision contract: kill the process at every checkpoint
# save and resume bit-identically, and ride out injected checkpoint
# I/O faults under the --retries budget.
cargo test -q -p towerlens-cli --test chaos

echo "== thread-count determinism: --threads 1 vs --threads 4 =="
# The parallel-layer contract at the outermost boundary: the same
# seeded study must print byte-identical stdout no matter how many
# workers split the stages.
thr_tmp="$(mktemp -d)"
trap 'rm -rf "$thr_tmp"' EXIT
./target/release/towerlens-cli study --scale tiny --seed 42 --threads 1 \
    > "$thr_tmp/study-t1.out"
./target/release/towerlens-cli study --scale tiny --seed 42 --threads 4 \
    > "$thr_tmp/study-t4.out"
cmp "$thr_tmp/study-t1.out" "$thr_tmp/study-t4.out" \
    || { echo "study output differs between --threads 1 and --threads 4"; exit 1; }
echo "bit-identical study output at --threads 1 and --threads 4"
# The tiny study never fills a full block of the blocked distance
# kernel; the raw medium study (2,400 x 4,032) does, and an odd worker
# count splits its tile schedule unevenly.
./target/release/towerlens-cli study --scale medium --feature-space raw --seed 42 \
    --threads 1 > "$thr_tmp/raw-t1.out"
./target/release/towerlens-cli study --scale medium --feature-space raw --seed 42 \
    --threads 3 > "$thr_tmp/raw-t3.out"
cmp "$thr_tmp/raw-t1.out" "$thr_tmp/raw-t3.out" \
    || { echo "raw medium study differs between --threads 1 and --threads 3"; exit 1; }
echo "bit-identical raw medium study at --threads 1 and --threads 3"
# Result tripwire: a study's result lines (pattern count, cluster
# shares, agreement; not the line naming its artifact) must read as
# pinned. The fingerprint test pins raw bits and is re-pinned whenever
# they move on purpose; this text moves only when a result does, so
# last-bit drift that shifts a tie fails here. A change meant to move a
# result re-pins the text with its reason in CHANGES.md.
pin_results() {
    local got
    got=$(grep -v '^wrote query artifact' "$1")
    if [ "$got" != "$2" ]; then
        echo "$3: result lines differ from the pinned text"
        diff <(printf '%s\n' "$2") <(printf '%s\n' "$got") || true
        exit 1
    fi
    echo "$3: result lines match the pinned text"
}
# Pinned from
#   towerlens-cli study --scale medium --feature-space raw --seed 42
pin_results "$thr_tmp/raw-t1.out" 'study medium seed 42: 2400 towers, 2400 analysed, 6 patterns
  cluster 0: Resident  17.5%
  cluster 1: Office  45.6%
  cluster 2: Comprehensive   0.6%
  cluster 3: Comprehensive  24.0%
  cluster 4: Entertainment  10.2%
  cluster 5: Transport   2.1%
ground-truth agreement: 0.948' "raw medium study"
# The paper study clusters in the spectral space, where the Goertzel
# table (groups of four towers), the centroids (dimension ranges) and
# the member distances (towers) split over the workers; an odd worker
# count splits all three unevenly. Its stdout, its snapshot artifact
# (centroids and feature table), its cluster checkpoint (member
# distances and merges) and its work counters must not depend on it.
# Each run writes into its own directory under the same relative
# names, so stdout (which names the artifact) can match byte for byte.
cli="$PWD/target/release/towerlens-cli"
for t in 1 3; do
    mkdir -p "$thr_tmp/paper-t$t"
    (cd "$thr_tmp/paper-t$t" && "$cli" study \
        --scale paper --seed 42 --threads "$t" --resume ckpt \
        --snapshot paper.artifact --metrics metrics.json > study.out)
done
for f in study.out paper.artifact ckpt/cluster.ckpt; do
    [ -s "$thr_tmp/paper-t1/$f" ] || { echo "paper study wrote no $f"; exit 1; }
    cmp "$thr_tmp/paper-t1/$f" "$thr_tmp/paper-t3/$f" \
        || { echo "paper study $f differs between --threads 1 and --threads 3"; exit 1; }
done
counters_t1=$(grep -o '"counters":{[^}]*}' "$thr_tmp/paper-t1/metrics.json")
counters_t3=$(grep -o '"counters":{[^}]*}' "$thr_tmp/paper-t3/metrics.json")
[ -n "$counters_t1" ] && [ "$counters_t1" = "$counters_t3" ] \
    || { echo "paper study counters differ between --threads 1 and --threads 3"; exit 1; }
echo "bit-identical paper study (stdout, snapshot, cluster checkpoint, counters)" \
    "at --threads 1 and --threads 3"
# A counter's value in a --metrics dump; 0 when never registered.
counter() {
    local v
    v=$(grep -o "\"$2\":[0-9]*" "$1" | head -1 | cut -d: -f2 || true)
    echo "${v:-0}"
}
# Resume at paper scale: a second run over the checkpoints the t1 run
# wrote must reload city, synthesize, vectorize and cluster, and print
# and write exactly what the fresh runs did. Wall times on a 2-vCPU VM:
# this resume takes 2.2 s, where it took 10.6 s over the text
# checkpoints the container replaced; each checkpointing run above went
# from 14.8 s to 5.0 s.
(cd "$thr_tmp/paper-t1" && "$cli" study --scale paper --seed 42 --resume ckpt \
    --snapshot paper.artifact --metrics resume-metrics.json > resume.out)
cmp "$thr_tmp/paper-t3/study.out" "$thr_tmp/paper-t1/resume.out" \
    || { echo "resumed paper study stdout differs from the fresh run"; exit 1; }
cmp "$thr_tmp/paper-t3/paper.artifact" "$thr_tmp/paper-t1/paper.artifact" \
    || { echo "resumed paper study snapshot differs from the fresh run"; exit 1; }
cached=$(counter "$thr_tmp/paper-t1/resume-metrics.json" core.engine.stages_cached)
[ "$cached" -eq 4 ] \
    || { echo "resumed paper study cached $cached stages, not 4"; exit 1; }
echo "paper study resumed bit-identically from its checkpoints (4 stages cached)"

echo "== paper-scale smoke: 9,600 towers in the spectral feature space =="
# The scale contract: the full Shanghai-size study must complete within
# a bounded wall-clock when clustering in the 6-dim spectral space
# (about 1.7 s on a 2-vCPU VM; the bound mostly exists to catch a
# regression back onto the O(n²·4032) materialised raw path).
timeout 180 ./target/release/towerlens-cli study \
    --scale paper --seed 42 --feature-space spectral \
    --metrics "$thr_tmp/paper-metrics.json" --snapshot "$thr_tmp/paper.artifact" \
    > "$thr_tmp/study-paper.out" \
    || { echo "paper-scale spectral study failed or blew the 180s bound"; exit 1; }
grep -q "9600 towers" "$thr_tmp/study-paper.out" \
    || { echo "paper-scale study output missing its tower count"; exit 1; }
echo "paper-scale spectral study completed within bound"
# Pinned from
#   towerlens-cli study --scale paper --seed 42 --feature-space spectral
pin_results "$thr_tmp/study-paper.out" 'study paper seed 42: 9600 towers, 9600 analysed, 3 patterns
  cluster 0: Resident  17.8%
  cluster 1: Office  76.6%
  cluster 2: Entertainment   5.7%
ground-truth agreement: 0.682' "paper-scale spectral study"

# Clustering work is deterministic, so the budget is exact. The two
# clustering paths are summed, so work cannot hide by moving from the
# k-d index to the materialised matrix. Measured with the study above:
#   towerlens-cli study --scale paper --seed 42 --feature-space spectral --metrics M
cluster_budget=46264198
cluster_evals=$(( $(counter "$thr_tmp/paper-metrics.json" cluster.index.leaf_evaluations) \
    + $(counter "$thr_tmp/paper-metrics.json" cluster.distance.evaluations) ))
[ "$cluster_evals" -le "$cluster_budget" ] \
    || { echo "paper study: $cluster_evals distance evaluations exceed $cluster_budget"; exit 1; }
echo "paper study clustered with $cluster_evals distance evaluations (budget $cluster_budget)"
# Label work is deterministic too: the POI index's longitude runs may
# not yield more candidates, and its planar pre-test may not leave more
# of them to the haversine, than when the gate was set. Measured with
# the study above:
#   towerlens-cli study --scale paper --seed 42 --feature-space spectral --metrics M
label_candidates_budget=2512602
label_haversine_budget=144
label_candidates=$(counter "$thr_tmp/paper-metrics.json" core.label.poi_candidates)
label_haversine=$(counter "$thr_tmp/paper-metrics.json" core.label.haversine_calls)
[ "$label_candidates" -gt 0 ] && [ "$label_candidates" -le "$label_candidates_budget" ] \
    || { echo "paper study: $label_candidates POI candidates, budget 1..$label_candidates_budget"; exit 1; }
[ "$label_haversine" -le "$label_haversine_budget" ] \
    || { echo "paper study: $label_haversine haversine calls exceed $label_haversine_budget"; exit 1; }
echo "paper study labelled with $label_candidates POI candidates (budget $label_candidates_budget)" \
    "and $label_haversine haversine calls (budget $label_haversine_budget)"
# One spectral table per study: the cluster stage's Goertzel pass
# evaluates three bins per kept tower (3 x 9,600), and every later
# reader takes its table. A second feature pass would double this.
# Measured with the study above:
#   towerlens-cli study --scale paper --seed 42 --feature-space spectral --metrics M
goertzel_budget=28800
goertzel_evals=$(counter "$thr_tmp/paper-metrics.json" dsp.goertzel.evaluations)
[ "$goertzel_evals" -le "$goertzel_budget" ] \
    || { echo "paper study: $goertzel_evals Goertzel evaluations exceed $goertzel_budget"; exit 1; }
echo "paper study made $goertzel_evals Goertzel evaluations (budget $goertzel_budget)"

echo "== paper-scale query batch: 40,000 requests, pruned topk =="
# The query contract at the paper's scale: a 40,000-line batch (6/8
# pattern lookups, 2/8 topk descents) against the paper snapshot must
# answer every line without an error, and the k-d index must prune at
# least as many subtrees as when the gate was set.
awk 'BEGIN {
    for (i = 0; i < 40000; i++) {
        id = i % 9600;
        if (i % 8 >= 6) print "topk", id, 8;
        else            print "pattern", id;
    }
}' > "$thr_tmp/paper-requests.txt"
./target/release/towerlens-cli query --snapshot "$thr_tmp/paper.artifact" --stdin \
    --metrics "$thr_tmp/query-metrics.json" \
    < "$thr_tmp/paper-requests.txt" > "$thr_tmp/paper-answers.out"
[ "$(wc -l < "$thr_tmp/paper-answers.out")" -eq 40000 ] \
    || { echo "paper query batch did not answer all 40,000 requests"; exit 1; }
if grep -q "error:" "$thr_tmp/paper-answers.out"; then
    echo "paper query batch answered with an error"; exit 1
fi
# Measured with the batch above:
#   towerlens-cli query --snapshot paper.artifact --stdin --metrics M < paper-requests.txt
pruned_floor=278787
pruned=$(counter "$thr_tmp/query-metrics.json" query.topk_pruned_total)
[ "$pruned" -ge "$pruned_floor" ] \
    || { echo "paper query batch pruned $pruned topk subtrees, fewer than $pruned_floor"; exit 1; }
echo "paper query batch answered 40,000 requests; $pruned topk subtrees pruned (floor $pruned_floor)"

echo "== serve smoke: streaming replay vs batch, kill-and-restart chaos =="
# The streaming contract, end to end through the real binary: a
# recorded stream drained by `serve` must render stdout byte-identical
# to a rerun over the same durable state (WAL + the drain's snapshot),
# and a daemon killed at every WAL segment boundary must converge to
# the same bytes with zero record loss. The serve test suite
# additionally asserts serve == batch_reference at the library level.
serve_tmp="$(mktemp -d)"
trap 'rm -rf "$serve_tmp" "$thr_tmp"' EXIT
./target/release/towerlens-cli gen --out "$serve_tmp/ds" \
    --seed 7 --towers 20 --agents 60 --days 7 > /dev/null
head -2500 "$serve_tmp/ds/logs.tsv" > "$serve_tmp/stream.tsv"
serve_flags=(--source "$serve_tmp/stream.tsv" --days 7 --segment-records 500 --shards 3)
./target/release/towerlens-cli serve "${serve_flags[@]}" --data "$serve_tmp/clean" \
    --metrics "$serve_tmp/clean-metrics.json" > "$serve_tmp/serve-clean.out" 2> /dev/null
# One snapshot per run, written at the drain: the run's snapshot bytes
# are exactly the one file on disk, however many segments it sealed.
snapshots=$(counter "$serve_tmp/clean-metrics.json" serve.snapshots)
snapshot_bytes=$(counter "$serve_tmp/clean-metrics.json" serve.snapshot.bytes)
snapshot_file=$(wc -c < "$serve_tmp/clean/snap/serve-state.ckpt")
[ "$snapshots" -eq 1 ] && [ "$snapshot_bytes" -eq "$snapshot_file" ] \
    || { echo "serve wrote $snapshots snapshots, $snapshot_bytes bytes, for a $snapshot_file-byte state; expected one"; exit 1; }
echo "serve wrote one snapshot of $snapshot_bytes bytes, at the drain"
# Recovery work, counted exactly: a rerun over the drained directory
# verifies every WAL entry once (one per non-empty stream line),
# applies none (the snapshot covers them all), and prints the drained
# run's stdout.
./target/release/towerlens-cli serve "${serve_flags[@]}" --data "$serve_tmp/clean" \
    --metrics "$serve_tmp/rerun-metrics.json" > "$serve_tmp/serve-rerun.out" 2> /dev/null
cmp "$serve_tmp/serve-clean.out" "$serve_tmp/serve-rerun.out" \
    || { echo "serve rerun over the drained directory changed stdout"; exit 1; }
stream_lines=$(grep -c . "$serve_tmp/stream.tsv")
verified=$(counter "$serve_tmp/rerun-metrics.json" serve.wal.entries_verified)
[ "$verified" -eq "$stream_lines" ] \
    || { echo "serve rerun verified $verified WAL entries, expected $stream_lines"; exit 1; }
grep -q '"serve.recovery.entries_applied":0[,}]' "$serve_tmp/rerun-metrics.json" \
    || { echo "serve rerun applied WAL entries its snapshot covers"; exit 1; }
echo "serve rerun verified all $verified WAL entries and applied none"
# Goertzel work, counted exactly: without --publish or --basis the only
# passes are the drain's, one three-bin pass per kept tower for the line
# amplitudes and one for the identifier's spectral table.
kept=$(counter "$serve_tmp/rerun-metrics.json" pipeline.normalize.towers_kept)
goertzel=$(counter "$serve_tmp/rerun-metrics.json" dsp.goertzel.evaluations)
[ "$kept" -gt 0 ] && [ "$goertzel" -eq $((6 * kept)) ] \
    || { echo "serve rerun made $goertzel Goertzel evaluations for $kept kept towers, expected 6 per tower"; exit 1; }
echo "serve rerun made $goertzel Goertzel evaluations, 6 per kept tower"
# Kill at every segment boundary (abort after each segment seal), then
# restart, until a run reaches the drain.
for attempt in $(seq 1 12); do
    if TOWERLENS_FAILPOINTS='wal.seal=abort@1' ./target/release/towerlens-cli serve \
        "${serve_flags[@]}" --data "$serve_tmp/chaos" \
        > "$serve_tmp/serve-chaos.out" 2> /dev/null; then
        break
    fi
    [ "$attempt" -lt 12 ] || { echo "serve chaos loop never drained"; exit 1; }
done
cmp "$serve_tmp/serve-clean.out" "$serve_tmp/serve-chaos.out" \
    || { echo "serve kill-and-resume stdout differs from uninterrupted run"; exit 1; }
./target/release/towerlens-cli doctor --dir "$serve_tmp/chaos" > /dev/null \
    || { echo "doctor found damage in the chaos data dir"; exit 1; }
echo "serve chaos replay bit-identical; WAL and snapshots fsck clean"

echo "== query smoke: artifact snapshot, t1-vs-t4 batch, corruption fsck =="
# The query contract, end to end through the real binary: a seeded
# study writes the versioned artifact, a 500-request mixed batch
# (including deliberately bad lines) renders byte-identical stdout at
# --threads 1 and 4, and after one byte of the artifact is flipped
# the doctor must notice and exit nonzero.
query_tmp="$(mktemp -d)"
trap 'rm -rf "$query_tmp" "$serve_tmp" "$thr_tmp"' EXIT
./target/release/towerlens-cli study --scale tiny --seed 42 \
    --snapshot "$query_tmp/study.artifact" > /dev/null
awk 'BEGIN {
    for (i = 0; i < 500; i++) {
        id = i % 120; m = i % 5;
        if (m <= 1)      print "pattern", id;
        else if (m == 2) print "topk", id, 5;
        else if (m == 3) print "decompose", id;
        else             print "pattern", 99999;
    }
}' > "$query_tmp/requests.txt"
for threads in 1 4; do
    ./target/release/towerlens-cli query --snapshot "$query_tmp/study.artifact" \
        --stdin --threads "$threads" \
        < "$query_tmp/requests.txt" > "$query_tmp/answers-t$threads.out"
done
cmp "$query_tmp/answers-t1.out" "$query_tmp/answers-t4.out" \
    || { echo "query batch differs between --threads 1 and --threads 4"; exit 1; }
[ "$(wc -l < "$query_tmp/answers-t1.out")" -eq 500 ] \
    || { echo "query batch did not answer all 500 requests"; exit 1; }
./target/release/towerlens-cli doctor --dir "$query_tmp" > /dev/null \
    || { echo "doctor rejected an intact artifact"; exit 1; }
last=$(( $(wc -c < "$query_tmp/study.artifact") - 1 ))
orig=$(dd if="$query_tmp/study.artifact" bs=1 skip="$last" count=1 2> /dev/null \
    | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $(( (orig + 1) % 256 )))" \
    | dd of="$query_tmp/study.artifact" bs=1 seek="$last" conv=notrunc 2> /dev/null
if ./target/release/towerlens-cli doctor --dir "$query_tmp" > /dev/null; then
    echo "doctor missed a flipped artifact byte"; exit 1
fi
echo "query batch bit-identical at --threads 1 and 4; corruption caught"

echo "== serving-path fault matrix: publish and snapshot kills, corrupt generation, shed determinism =="
# The overload/degraded-mode contract (DESIGN.md §15), end to end:
# kill the daemon inside the generation publish, or inside the drain's
# snapshot save (DESIGN.md §13), at each protocol point with an
# escalating ordinal until a run drains, then demand that some run was
# killed, that the converged store's CURRENT generation be
# byte-identical to the clean run's, and that the data directory fsck
# clean. The checkpoint.tmp and checkpoint stages kill the first run at
# its drain's save, the run's only one; the second resumes and drains.
# Corrupt that generation and demand `query --watch` stays on
# the last good one with degraded health; and shed a fixed slice of a
# batch under --request-budget at two thread counts, demanding
# byte-identical answers.
press_tmp="$(mktemp -d)"
trap 'rm -rf "$press_tmp" "$query_tmp" "$serve_tmp" "$thr_tmp"' EXIT
press_flags=(--source "$serve_tmp/stream.tsv" --days 7 --segment-records 500 --shards 3)
./target/release/towerlens-cli serve "${press_flags[@]}" \
    --data "$press_tmp/clean" --publish "$press_tmp/clean-store" \
    --metrics "$press_tmp/clean-metrics.json" > /dev/null 2>&1
# Barrier analysis, counted exactly: the stream's five segment barriers
# publish five generations (the drain reuses the last, which covers the
# stream), vectorize 7,411 sessions and, with the drain's report, make
# 177 Goertzel evaluations. A barrier analysed twice or dropped, or a
# drain that analyses the state again, moves them.
for gate in serve.generations_published=5 pipeline.vectorize.records=7411 \
    dsp.goertzel.evaluations=177; do
    got=$(counter "$press_tmp/clean-metrics.json" "${gate%=*}")
    [ "$got" -eq "${gate#*=}" ] \
        || { echo "publishing serve counted ${gate%=*} = $got, expected ${gate#*=}"; exit 1; }
done
echo "publishing serve analysed each of its five barriers once"
clean_gen="$press_tmp/clean-store/$(cat "$press_tmp/clean-store/CURRENT")"
for stage in publish.gen.tmp publish.gen publish.cur.tmp checkpoint.tmp checkpoint; do
    converged=0
    for nth in $(seq 1 12); do
        if TOWERLENS_FAILPOINTS="$stage=abort@$nth" ./target/release/towerlens-cli serve \
            "${press_flags[@]}" --data "$press_tmp/$stage" \
            --publish "$press_tmp/$stage-store" > /dev/null 2>&1; then
            converged=1; break
        fi
    done
    [ "$converged" -eq 1 ] || { echo "publish chaos ($stage) never drained"; exit 1; }
    [ "$nth" -gt 1 ] || { echo "publish chaos ($stage): no run was killed"; exit 1; }
    chaos_gen="$press_tmp/$stage-store/$(cat "$press_tmp/$stage-store/CURRENT")"
    cmp "$clean_gen" "$chaos_gen" \
        || { echo "publish chaos ($stage): converged generation differs"; exit 1; }
    ./target/release/towerlens-cli doctor --dir "$press_tmp/$stage" > /dev/null \
        || { echo "publish chaos ($stage): doctor found damage in the data dir"; exit 1; }
done
./target/release/towerlens-cli query --snapshot "$press_tmp/clean-store" --watch health \
    | grep -q "degraded=no" || { echo "clean store reports degraded health"; exit 1; }
# One flipped byte in the pointed-to generation: the watcher must fall
# back to the last good generation, report degraded health, and doctor
# must fail the store.
glast=$(( $(wc -c < "$clean_gen") - 1 ))
gorig=$(dd if="$clean_gen" bs=1 skip="$glast" count=1 2> /dev/null \
    | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $(( (gorig + 1) % 256 )))" \
    | dd of="$clean_gen" bs=1 seek="$glast" conv=notrunc 2> /dev/null
./target/release/towerlens-cli query --snapshot "$press_tmp/clean-store" --watch health \
    | grep -q "degraded=yes" \
    || { echo "watcher served a generation that fails fsck"; exit 1; }
if ./target/release/towerlens-cli doctor --dir "$press_tmp/clean-store" > /dev/null; then
    echo "doctor missed the corrupt generation"; exit 1
fi
# Shed determinism: the same budget-limited batch must produce
# byte-identical answers (sheds included, in input order) at 1 and 4
# threads. topk costs one unit per tower, so budget 5 sheds every scan.
# (The query smoke above corrupted its artifact on purpose — build a
# fresh one.)
./target/release/towerlens-cli study --scale tiny --seed 42 \
    --snapshot "$press_tmp/study.artifact" > /dev/null
for threads in 1 4; do
    ./target/release/towerlens-cli query --snapshot "$press_tmp/study.artifact" \
        --stdin --threads "$threads" --request-budget 5 \
        < "$query_tmp/requests.txt" > "$press_tmp/shed-t$threads.out" 2> /dev/null \
        || { echo "budget-limited query batch failed at --threads $threads"; exit 1; }
done
cmp "$press_tmp/shed-t1.out" "$press_tmp/shed-t4.out" \
    || { echo "shed decisions differ between --threads 1 and --threads 4"; exit 1; }
grep -q "error: overloaded:" "$press_tmp/shed-t1.out" \
    || { echo "budget 5 shed nothing — admission control inert"; exit 1; }
echo "publish and snapshot kill matrix converged byte-identically; corrupt generation quarantined; shedding deterministic"

echo "== 100,000-point spatial index: leaf-evaluation budget =="
# The k-d index at ten times the paper's tower count: a complete
# average-linkage dendrogram over 100,000 synthetic 6-dim points may
# not evaluate more leaf distances than its pinned budget,
# 5,007,007,814, measured with
#   cargo test --release -p towerlens-cluster --test index_100k -- --ignored
# (see the test's module docs). The wall-clock bound catches an index
# that regressed to scan-like behaviour.
cargo test --release -q -p towerlens-cluster --test index_100k --no-run
timeout 540 cargo test --release -q -p towerlens-cluster --test index_100k -- --ignored \
    || { echo "100k-point index build failed, blew its budget or the 540s bound"; exit 1; }

echo "== cargo clippy =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "All checks passed."
