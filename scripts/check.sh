#!/usr/bin/env bash
# Full local gate: build, tests (the fault matrix among them), lints,
# bench smoke, and the CLI smoke suites.  Run from anywhere.
#
#   CHRONOS_SKIP_BENCH=1 scripts/check.sh    # skip the criterion smoke
#
# Every workdir is a mktemp -d cleaned up on any exit path, and every
# batch heredoc's exit code is checked — the CLI exits non-zero when a
# statement fails, so a broken script can't pass silently.
set -euo pipefail
cd "$(dirname "$0")/.."

# The run must leave the checkout as it found it: nothing it builds,
# measures or writes may land in a tracked or unignored file.
status_before=$(git status --porcelain 2>/dev/null || true)

workdirs=()
cleanup() {
  if [ "${#workdirs[@]}" -gt 0 ]; then
    rm -rf "${workdirs[@]}"
  fi
}
trap cleanup EXIT
die() {
  echo "$1" >&2
  shift
  for extra in "$@"; do echo "$extra"; done
  exit 1
}

echo "==> cargo fmt --check (and the vendored crates, which it skips)"
cargo fmt --check
rustfmt --edition 2021 --check vendor/*/src/lib.rs

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> frozen benchmark still builds against the crates"
# benchmark/ may not change with the code it measures; an API break
# against it must fail here, not in the measurement pipeline.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> every declared (dev-)dependency is used"
scripts/check-deps.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings (tests, benches and examples too)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> rustdoc -D warnings (chronos-db, chronos-storage: no broken or private intra-doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p chronos-db -p chronos-storage

echo "==> proptest regressions policy (counterexamples must be committed)"
if [ -n "$(git status --porcelain -- '*.proptest-regressions' 2>/dev/null)" ]; then
  git status --porcelain -- '*.proptest-regressions'
  die "proptest found new counterexamples: commit the *.proptest-regressions files"
fi

if [ "${CHRONOS_SKIP_BENCH:-0}" = "1" ]; then
  echo "==> bench smoke skipped (CHRONOS_SKIP_BENCH=1)"
else
  echo "==> bench smoke (cargo bench -p chronos-bench -- --test)"
  cargo bench -p chronos-bench --offline -- --test
fi

echo "==> observability smoke (explain per relation class + overhead gate)"
# One explain per relation class through the CLI; the span tree must
# name the tquel and storage layers for each.
explain_out=$(./target/release/chronos --batch <<'EOF'
create s_rel (name = str, rank = str) as static
create r_rel (name = str, rank = str) as rollback
create h_rel (name = str, rank = str) as historical
create t_rel (name = str, rank = str) as temporal

append to s_rel (name = "Merrie", rank = "full")

append to r_rel (name = "Merrie", rank = "full")

append to h_rel (name = "Merrie", rank = "full")

append to t_rel (name = "Merrie", rank = "full")

range of s is s_rel
range of r is r_rel
range of h is h_rel
range of t is t_rel

explain retrieve (s.rank)

explain retrieve (r.rank)

explain retrieve (h.rank)

explain retrieve (t.rank)

profile select (t.rank) where t.name = "Merrie"
EOF
) || die "explain smoke: batch script failed"
[ "$(grep -c 'tquel/exec' <<<"$explain_out")" -eq 5 ] \
  || die "explain smoke: expected 5 span trees" "$explain_out"
# A two-variable join: each variable's key constant is handed to its
# scan, and its own conjunct narrows the rows; explain names the key on
# each tquel/scan line and the conjunct in a tquel/filter span under it.
join_out=$(./target/release/chronos --batch <<'EOF'
create t_rel (name = str, rank = str) as temporal

append to t_rel (name = "Merrie", rank = "full")

append to t_rel (name = "Tom", rank = "associate")

range of t is t_rel
range of u is t_rel

explain retrieve (t.rank) where t.name = "Merrie" and u.name = "Tom" when t overlap start of u
EOF
) || die "explain smoke: join batch script failed"
[ "$(grep -c 'tquel/filter' <<<"$join_out")" -eq 2 ] \
  || die "explain smoke: expected 2 tquel/filter spans" "$join_out"
grep -q 'tquel/filter \[where t.name = "Merrie"\]' <<<"$join_out" \
  || die "explain smoke: t's pushed conjunct not named" "$join_out"
grep -q 'tquel/filter \[where u.name = "Tom"\]' <<<"$join_out" \
  || die "explain smoke: u's pushed conjunct not named" "$join_out"
grep -q 'tquel/scan \[t over t_rel \[key name = "Merrie"\]\]' <<<"$join_out" \
  || die "explain smoke: t's scan does not name its key" "$join_out"
grep -q 'tquel/scan \[u over t_rel \[key name = "Tom"\]\]' <<<"$join_out" \
  || die "explain smoke: u's scan does not name its key" "$join_out"
# Sessions read transaction-time relations as of their snapshot pin,
# so the rollback and temporal trees show the tx-index stab (and the
# keyed profile the key index).
grep -q 'storage/asof' <<<"$explain_out" \
  || die "explain smoke: storage span missing" "$explain_out"
grep -q 'tx-index stab' <<<"$explain_out" \
  || die "explain smoke: as-of read did not stab the tx index" "$explain_out"
grep -q 'key index' <<<"$explain_out" \
  || die "explain smoke: keyed read did not use the key index" "$explain_out"
grep -q 'counters:' <<<"$explain_out" \
  || die "explain smoke: counter line missing" "$explain_out"
# T10 prices the whole observability stack against a disabled recorder
# by alternating pairs of statement blocks; it exits non-zero when the
# median ratio is over 1.05 or its 95% interval never narrows to ±0.02,
# and prints one pass line otherwise.
obs_exp_out=$(EXPERIMENTS_ONLY=T10 ./target/release/experiments) \
  || die "observability gate (T10) failed" "$obs_exp_out"
[ "$(grep -c 'within budget' <<<"$obs_exp_out")" -eq 1 ] \
  || die "observability gate (T10) printed no pass line" "$obs_exp_out"

echo "==> operational surface smoke (/healthz + /metrics over raw TCP)"
obs_dir=$(mktemp -d)
workdirs+=("$obs_dir")
obs_out=$(./target/release/chronos --batch --obs-addr 127.0.0.1:0 \
            --slow-threshold-ns 0 "$obs_dir/db" <<'EOF'
create faculty (name = str, rank = str) as temporal

append to faculty (name = "Merrie", rank = "associate")

\obs /wal
\sample
\obs /healthz
\obs /metrics
\obs /slow
\obs /sessions
\obs /wal
\obs /storage
\obs /readyz
\slow
\sessions
\q
EOF
) || die "obs smoke: batch script failed"
grep -q '^200 /healthz' <<<"$obs_out" \
  || die "obs smoke: /healthz not 200" "$obs_out"
grep -q '^200 /metrics' <<<"$obs_out" \
  || die "obs smoke: /metrics not 200" "$obs_out"
grep -q '^200 /slow' <<<"$obs_out" \
  || die "obs smoke: /slow not 200" "$obs_out"
grep -q '^200 /sessions' <<<"$obs_out" \
  || die "obs smoke: /sessions not 200" "$obs_out"
grep -qF '{"sys$sessions": [' <<<"$obs_out" \
  || die "obs smoke: /sessions body missing the sys\$sessions rows" "$obs_out"
grep -q '^200 /wal' <<<"$obs_out" \
  || die "obs smoke: /wal not 200" "$obs_out"
grep -q '"stat": "frames"' <<<"$obs_out" \
  || die "obs smoke: /wal body missing the frame stats" "$obs_out"
# /wal reads the live log: the commit's frame shows before any \sample.
grep -m1 -A1 '^200 /wal' <<<"$obs_out" | grep -qF '"stat": "frames", "value": 1,' \
  || die "obs smoke: /wal before \\sample does not show the commit's frame" "$obs_out"
grep -q '^200 /storage' <<<"$obs_out" \
  || die "obs smoke: /storage not 200" "$obs_out"
grep -q '"relation": "faculty"' <<<"$obs_out" \
  || die "obs smoke: /storage body missing the faculty row" "$obs_out"
grep -q '^200 /readyz' <<<"$obs_out" \
  || die "obs smoke: /readyz not 200" "$obs_out"
grep -q 'no live sessions\|idle' <<<"$obs_out" \
  || die "obs smoke: \\sessions produced nothing" "$obs_out"
grep -q 'chronos_wal_appends 1' <<<"$obs_out" \
  || die "obs smoke: scrape missing live counters" "$obs_out"
grep -q 'session/statement' <<<"$obs_out" \
  || die "obs smoke: slow log missing span tree" "$obs_out"
# The event journal the run produced must be well-formed JSONL.
./target/release/chronos --check-jsonl "$obs_dir/db/events.jsonl" \
  || die "obs smoke: events.jsonl malformed"
# There is no scan cache: no gauge family for it, no journal line per
# commit for it.
! grep -q 'chronos_query_cache_' <<<"$obs_out" \
  || die "obs smoke: /metrics still exports a query-cache family" "$obs_out"
! grep -q '"event": "cache_epoch_bump"' "$obs_dir/db/events.jsonl" \
  || die "obs smoke: events.jsonl still journals cache_epoch_bump"
# The WAL is the commit journal: a commit writes its frame and no
# journal line.
! grep -q '"event": "\(wal_append\|group_commit\)"' "$obs_dir/db/events.jsonl" \
  || die "obs smoke: events.jsonl journals a per-commit line"

echo "==> temporal introspection smoke (sys\$stats via TQuel + /history)"
intro_dir=$(mktemp -d)
workdirs+=("$intro_dir")
intro_out=$(./target/release/chronos --batch --obs-addr 127.0.0.1:0 \
              --sample-interval-ms 20 "$intro_dir/db" <<'EOF'
\advance 01/01/80
create faculty (name = str, rank = str) as temporal

append to faculty (name = "Merrie", rank = "associate")

\sample
range of s is sys$stats
retrieve (s.metric, s.value) where s.metric = "commits"

range of r is sys$relations
retrieve (r.name, r.class, r.tuples)

\top
\obs /stats
\obs /history?metric=commits&n=8
\obs /events?n=16
\obs /readyz
\q
EOF
) || die "introspection smoke: batch script failed"
grep -q 'commits | 1' <<<"$intro_out" \
  || die "introspection smoke: sys\$stats missing the commit sample" "$intro_out"
grep -q 'faculty | temporal' <<<"$intro_out" \
  || die "introspection smoke: sys\$relations missing the catalog row" "$intro_out"
grep -q 'workload fingerprints' <<<"$intro_out" \
  || die "introspection smoke: \\top produced nothing" "$intro_out"
grep -q '200 /stats' <<<"$intro_out" \
  || die "introspection smoke: /stats not 200" "$intro_out"
grep -q '"metric": "telemetry_samples_taken"' <<<"$intro_out" \
  || die "introspection smoke: /stats missing the telemetry counters" "$intro_out"
grep -q '200 /history' <<<"$intro_out" \
  || die "introspection smoke: /history not 200" "$intro_out"
grep -q '"metric": "commits"' <<<"$intro_out" \
  || die "introspection smoke: /history body wrong" "$intro_out"
grep -q '200 /events' <<<"$intro_out" \
  || die "introspection smoke: /events not 200" "$intro_out"
grep -q '"sampler_running": true' <<<"$intro_out" \
  || die "introspection smoke: /readyz missing sampler flag" "$intro_out"
# The /stats and /history bodies must be well-formed JSON; reuse the
# JSONL validator by extracting each body onto one line.
grep -A1 '^200 /stats' <<<"$intro_out" | tail -1 > "$intro_dir/bodies.jsonl"
grep -A1 '^200 /history' <<<"$intro_out" | tail -1 >> "$intro_dir/bodies.jsonl"
./target/release/chronos --check-jsonl "$intro_dir/bodies.jsonl" \
  || die "introspection smoke: HTTP bodies malformed"
# The run's journal records the sampler lifecycle.
grep -q 'sampler_start' "$intro_dir/db/events.jsonl" \
  || die "introspection smoke: sampler_start not journaled"

echo "==> workload analytics smoke (analyze / sys\$tablestats / sys\$queries / --stats-json)"
wa_dir=$(mktemp -d)
workdirs+=("$wa_dir")
wa_out=$(./target/release/chronos --batch --obs-addr 127.0.0.1:0 "$wa_dir/db" <<'EOF'
\advance 01/01/80
create faculty (name = str, rank = str) as temporal

append to faculty (name = "Merrie", rank = "associate")

append to faculty (name = "Tom", rank = "assistant")

range of f is faculty
retrieve (f.rank) where f.name = "Merrie"

retrieve (f.rank) where f.name = "Tom"

analyze faculty

range of ts is sys$tablestats
retrieve (ts.stat, ts.value) where ts.relation = "faculty" and ts.stat = "versions"

range of q is sys$queries
retrieve (q.fingerprint, q.statement, q.kind, q.calls, q.p50_ns, q.p99_ns, q.rows_out,
          q.worst_misestimate_x1000, q.access_path)
  where q.kind = "retrieve"

\top
\obs /queries
\q
EOF
) || die "analytics smoke: batch script failed"
grep -q 'analyzed faculty' <<<"$wa_out" \
  || die "analytics smoke: analyze produced no confirmation" "$wa_out"
grep -q 'versions | 2' <<<"$wa_out" \
  || die "analytics smoke: sys\$tablestats missing the versions stat" "$wa_out"
# sys$queries has exactly these nine columns: the retrieve above
# fails on a dropped one, this header on a renamed one, and the
# /queries check below on a leftover cache count.
grep -Eq '^fingerprint +\| statement +\| kind +\| calls +\| p50_ns +\| p99_ns +\| rows_out +\| worst_misestimate_x1000 +\| access_path$' <<<"$wa_out" \
  || die "analytics smoke: sys\$queries columns changed" "$wa_out"
# Two literal variations of the same retrieve shape: one fingerprint,
# two calls, literals normalized to "?".
grep -Eq 'f\.name = "\?" *\| retrieve *\| 2 ' <<<"$wa_out" \
  || die "analytics smoke: fingerprint dedup failed" "$wa_out"
grep -q '200 /queries' <<<"$wa_out" \
  || die "analytics smoke: /queries not 200" "$wa_out"
grep -qF '{"sys$queries": [' <<<"$wa_out" \
  || die "analytics smoke: /queries body missing the sys\$queries rows" "$wa_out"
! grep -q '"cache_' <<<"$wa_out" \
  || die "analytics smoke: /queries still reports cache counts" "$wa_out"
grep -q 'workload fingerprints' <<<"$wa_out" \
  || die "analytics smoke: \\top missing the fingerprint section" "$wa_out"
# --stats-json: the /stats document on stdout, well-formed JSON.
./target/release/chronos --stats-json "$wa_dir/db" > "$wa_dir/stats.json" \
  || die "analytics smoke: --stats-json failed"
./target/release/chronos --check-jsonl "$wa_dir/stats.json" \
  || die "analytics smoke: --stats-json output malformed"
grep -qF '{"sys$stats": [{"metric": "pager_page_reads"' "$wa_dir/stats.json" \
  || die "analytics smoke: --stats-json missing the sys\$stats rows"

echo "==> TQuel service smoke (--serve / --connect over loopback)"
svc_dir=$(mktemp -d)
workdirs+=("$svc_dir")
svc_log="$svc_dir/serve.log"
# Hold the serving shell's stdin open on a fifo so it idles while the
# client runs; closing fd 9 later gives it EOF and a clean shutdown.
mkfifo "$svc_dir/stdin"
./target/release/chronos --batch --serve 127.0.0.1:0 --obs-addr 127.0.0.1:0 \
  --slow-threshold-ns 0 "$svc_dir/db" \
  < "$svc_dir/stdin" > "$svc_log" 2>&1 &
svc_pid=$!
exec 9> "$svc_dir/stdin"
svc_addr=""
for _ in $(seq 1 100); do
  svc_addr=$(sed -n 's/.*TQuel service at \([0-9.:]*\).*/\1/p' "$svc_log" | head -1)
  [ -n "$svc_addr" ] && break
  sleep 0.1
done
[ -n "$svc_addr" ] || die "service smoke: server never announced its address" "$(cat "$svc_log")"
svc_obs=$(sed -n 's|.*observability at http://\([0-9.:]*\)/.*|\1|p' "$svc_log" | head -1)
[ -n "$svc_obs" ] || die "service smoke: server never announced its exporter" "$(cat "$svc_log")"
connect_out=$(./target/release/chronos --batch --connect "$svc_addr" <<'EOF'
create faculty (name = str, rank = str) as temporal

append to faculty (name = "Merrie", rank = "associate")

range of f is faculty
retrieve (f.name, f.rank)
EOF
) || die "service smoke: --connect batch replay failed" "$connect_out"
grep -q 'Merrie' <<<"$connect_out" \
  || die "service smoke: remote retrieve missing the committed row" "$connect_out"
# End-to-end trace correlation: a client-chosen trace id must come back
# in the response AND show up in the server's slow-query log, live
# session registry, and events journal.
traced_out=$(./target/release/chronos --batch --connect "$svc_addr" \
               --trace-id tr-check-1 2>&1 <<'EOF'
range of f is faculty
retrieve (f.name, f.rank)
EOF
) || die "service smoke: traced --connect replay failed" "$traced_out"
grep -q '\[trace tr-check-1\]' <<<"$traced_out" \
  || die "service smoke: response did not echo the client trace id" "$traced_out"
slow_body=$(./target/release/chronos --get "$svc_obs" /slow) \
  || die "service smoke: GET /slow failed"
grep -q 'tr-check-1' <<<"$slow_body" \
  || die "service smoke: trace id missing from the slow-query log" "$slow_body"
sessions_body=$(./target/release/chronos --get "$svc_obs" /sessions) \
  || die "service smoke: GET /sessions failed"
grep -qF '{"sys$sessions": [' <<<"$sessions_body" \
  || die "service smoke: /sessions body missing the sys\$sessions rows" "$sessions_body"
# A statement error over the wire must exit non-zero, like local batch.
if echo 'retrieve (zzz.name)' | ./target/release/chronos --batch --connect "$svc_addr" >/dev/null 2>&1; then
  die "service smoke: remote statement error did not exit non-zero"
fi
exec 9>&-
wait "$svc_pid" || die "service smoke: serving shell exited non-zero" "$(cat "$svc_log")"
# The commit arrived over the wire but must be durably on disk.
svc_rows=$(./target/release/chronos --batch "$svc_dir/db" <<'EOF'
range of f is faculty
retrieve (f.name, f.rank)
EOF
) || die "service smoke: reopening the served database failed"
grep -q 'Merrie' <<<"$svc_rows" \
  || die "service smoke: remote commit not durable after shutdown" "$svc_rows"
# The traced statement's slow_query event was journaled with its id.
grep -q 'tr-check-1' "$svc_dir/db/events.jsonl" \
  || die "service smoke: trace id missing from the events journal"

echo "==> shell parity (the same batch through the embedded and the --serve shell)"
# Both shells run the same session code; this guards against serving
# beside the shell changing what the shell prints or how it exits.
par_dir=$(mktemp -d)
workdirs+=("$par_dir")
cat > "$par_dir/script.tquel" <<'EOF'
\advance 01/01/80
create s_rel (name = str, rank = str) as static
create r_rel (name = str, rank = str) as rollback
create h_rel (name = str, rank = str) as historical
create t_rel (name = str, rank = str) as temporal

append to s_rel (name = "Merrie", rank = "associate")
append to r_rel (name = "Merrie", rank = "associate")
append to h_rel (name = "Merrie", rank = "associate")
append to t_rel (name = "Merrie", rank = "associate")
append to t_rel (name = "Tom", rank = "assistant")

\advance 06/01/82
range of s is s_rel
range of r is r_rel
range of h is h_rel
range of t is t_rel
replace s (rank = "full") where s.name = "Merrie"
replace r (rank = "full") where r.name = "Merrie"
replace h (rank = "full") where h.name = "Merrie"
replace t (rank = "full") where t.name = "Merrie"

\advance 01/01/83
delete t where t.name = "Tom"

retrieve (s.name, s.rank)

retrieve (h.name, h.rank)

retrieve (t.name, t.rank)

retrieve (r.name, r.rank) as of "01/01/81"

retrieve (t.name, t.rank) as of "01/01/81"

retrieve (s.rank) as of "01/01/81"
EOF
for mode in embedded serve; do
  args=(--batch)
  [ "$mode" = serve ] && args+=(--serve 127.0.0.1:0)
  code=0
  ./target/release/chronos "${args[@]}" < "$par_dir/script.tquel" \
    > "$par_dir/$mode.out" 2> "$par_dir/$mode.err" || code=$?
  # The last statement ('as of' on a static relation) is refused.
  [ "$code" -eq 1 ] \
    || die "shell parity: $mode shell exited $code, want 1" "$(cat "$par_dir/$mode.err")"
  grep -q "'as of' requires rollback support" "$par_dir/$mode.err" \
    || die "shell parity: $mode shell did not refuse the static 'as of'" "$(cat "$par_dir/$mode.err")"
done
grep -q 'associate' "$par_dir/embedded.out" \
  || die "shell parity: the 'as of' retrieves returned nothing" "$(cat "$par_dir/embedded.out")"
diff -u "$par_dir/embedded.out" "$par_dir/serve.out" \
  || die "shell parity: the embedded and --serve shells printed different results"

echo "==> negative checks (deliberate corruption must be caught)"
neg_dir=$(mktemp -d)
workdirs+=("$neg_dir")
# Build a small durable database to corrupt.
./target/release/chronos --batch "$neg_dir/db" >/dev/null <<'EOF'
\advance 01/01/80
create faculty (name = str, rank = str) as temporal

append to faculty (name = "Merrie", rank = "associate")

append to faculty (name = "Tom", rank = "assistant")
EOF
# 1. A statement error in batch mode exits non-zero.
if echo 'append to nosuch (x = "y")' | ./target/release/chronos --batch >/dev/null 2>&1; then
  die "negative: batch statement error did not exit non-zero"
fi
# 2. A corrupted catalog refuses to open (checksums are load-bearing).
printf '\xAA' >> "$neg_dir/db/catalog"
if ./target/release/chronos --batch "$neg_dir/db" </dev/null >/dev/null 2>&1; then
  die "negative: corrupted catalog opened cleanly"
fi
# Undo the catalog damage for the WAL check below.
rm -rf "$neg_dir/db"
./target/release/chronos --batch "$neg_dir/db" >/dev/null <<'EOF'
\advance 01/01/80
create faculty (name = str, rank = str) as temporal

append to faculty (name = "Merrie", rank = "associate")

append to faculty (name = "Tom", rank = "assistant")
EOF
# 3. The offline doctor passes a clean database (exit 0, clean verdict)
#    without touching it.
inspect_out=$(./target/release/chronos --inspect "$neg_dir/db") \
  || die "inspect smoke: clean database did not inspect clean" "$inspect_out"
grep -q 'verdict: clean' <<<"$inspect_out" \
  || die "inspect smoke: clean verdict missing" "$inspect_out"
./target/release/chronos --inspect-json "$neg_dir/db" | grep -q '"tail": "clean"' \
  || die "inspect smoke: JSONL dump missing the clean tail verdict"
# 4. A torn WAL tail: the doctor diagnoses it (exit 2, offset named,
#    file unmodified), then recovery degrades gracefully AND the
#    degradation is journaled as a wal_truncated event.
#    The frames end before the file does (a zeroed tail follows them),
#    so the cut goes 3 bytes into the last frame, located from the
#    JSONL dump: its offset plus its length is where the frames end.
frames_end=$(./target/release/chronos --inspect-json "$neg_dir/db" \
  | sed -n 's/^{"offset": \([0-9]*\), "len": \([0-9]*\),.*/\1 + \2/p' | tail -n 1)
[ -n "$frames_end" ] || die "inspect smoke: no frame in the JSONL dump"
cut_at=$(( frames_end - 3 ))
truncate -s "$cut_at" "$neg_dir/db/wal"
if inspect_out=$(./target/release/chronos --inspect "$neg_dir/db"); then
  die "inspect smoke: torn WAL inspected clean" "$inspect_out"
fi
grep -q 'torn tail' <<<"$inspect_out" \
  || die "inspect smoke: torn-tail diagnosis missing" "$inspect_out"
grep -q 'at offset' <<<"$inspect_out" \
  || die "inspect smoke: torn-tail offset missing" "$inspect_out"
[ "$(wc -c < "$neg_dir/db/wal")" -eq "$cut_at" ] \
  || die "inspect smoke: the doctor mutated the WAL"
./target/release/chronos --batch "$neg_dir/db" </dev/null >/dev/null 2>&1 \
  || die "negative: torn WAL tail must degrade gracefully, not fail"
grep -q '"event": "wal_truncated"' "$neg_dir/db/events.jsonl" \
  || die "negative: torn-tail recovery was not journaled"

echo "==> four-class inspect smoke (one store, one checkpoint image shape)"
cls_dir=$(mktemp -d)
workdirs+=("$cls_dir")
# One relation of each class, a superseded version in each, then a
# checkpoint on the way out: the doctor must read every image and take
# its class from the catalog.
./target/release/chronos --batch "$cls_dir/db" >/dev/null <<'EOF' \
  || die "class smoke: batch script failed"
\advance 01/01/80
create s_rel (name = str, rank = str) as static
create r_rel (name = str, rank = str) as rollback
create h_rel (name = str, rank = str) as historical
create t_rel (name = str, rank = str) as temporal

append to s_rel (name = "Merrie", rank = "associate")

append to r_rel (name = "Merrie", rank = "associate")

append to h_rel (name = "Merrie", rank = "associate")

append to t_rel (name = "Merrie", rank = "associate")

\advance 06/01/82
range of s is s_rel
range of r is r_rel
range of h is h_rel
range of t is t_rel
replace s (rank = "full") where s.name = "Merrie"

replace r (rank = "full") where r.name = "Merrie"

replace h (rank = "full") where h.name = "Merrie"

replace t (rank = "full") where t.name = "Merrie"

\checkpoint
EOF
inspect_out=$(./target/release/chronos --inspect "$cls_dir/db") \
  || die "class smoke: four-class database did not inspect clean" "$inspect_out"
grep -q 'checkpoint: 4 image(s)' <<<"$inspect_out" \
  || die "class smoke: expected four checkpoint images" "$inspect_out"
# Kept versions: static 1, rollback 2, historical 2, temporal 3.
for want in 'static  1 row' 'static rollback  2 row' 'historical  2 row' 'temporal  3 row'; do
  grep -q "$want" <<<"$inspect_out" \
    || die "class smoke: image line '$want' missing" "$inspect_out"
done
# Reopen from the image: the rollback relation still answers `as of`.
cls_rows=$(./target/release/chronos --batch "$cls_dir/db" <<'EOF'
range of r is r_rel
retrieve (r.rank) as of "01/01/81"
EOF
) || die "class smoke: reopening the four-class database failed"
grep -q 'associate' <<<"$cls_rows" \
  || die "class smoke: rollback relation lost its history across the checkpoint" "$cls_rows"

echo "==> the checkout is as the run found it"
status_after=$(git status --porcelain 2>/dev/null || true)
[ "$status_after" = "$status_before" ] \
  || die "check.sh changed the checkout (git status before, then after):" \
         "$status_before" "---" "$status_after"

echo "==> all checks passed"
