#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline (no registry access) on a
# fresh checkout. Run it before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== tests =="
cargo test --workspace --offline --quiet

echo "== release tests =="
# The benchmark measures release code, and integer overflow behaves
# differently there (wrapping and masked shifts instead of panics), so
# the fold, hash, trace-codec and golden-pin suites also run in the
# release build. So do the engine's parity suite and LLBP's: one-worker
# runs hand pooled predictor tables (LLBP's arenas and directories
# included) from cell to cell, re-zeroed by the `fill` calls that compile
# to memsets here. The allocation pins run here too, since perfbench
# counts allocations in the release build.
cargo test --release --offline --quiet -p bputil -p llbp-tage -p llbp-trace -p llbp-core
cargo test --release --offline --quiet -p llbp-sim --test llbp_golden --test backend_parity \
    --test engine_parity --test store_alloc

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== persistent cache smoke =="
# A warm re-run of the same sweep must be served from the memo store.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
LLBP_CACHE_DIR="$SMOKE_DIR" ./target/release/fig02_mpki_limits --quick \
    > /dev/null 2> "$SMOKE_DIR/first.err"
LLBP_CACHE_DIR="$SMOKE_DIR" ./target/release/fig02_mpki_limits --quick \
    > /dev/null 2> "$SMOKE_DIR/second.err"
grep -q '"memo_misses":0' "$SMOKE_DIR/second.err" || {
    echo "cache smoke: warm run still simulated cells:"; cat "$SMOKE_DIR/second.err"; exit 1
}
grep -Eq '"memo_hits":[1-9]' "$SMOKE_DIR/second.err" || {
    echo "cache smoke: warm run reported no memo hits:"; cat "$SMOKE_DIR/second.err"; exit 1
}

echo "== fault-injection smoke =="
# An injected panic must be retried away: the run exits 0 and prints the
# byte-identical figure. Separate cache dirs keep both runs cold.
FAULT_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR"' EXIT
LLBP_CACHE_DIR="$FAULT_DIR/clean" ./target/release/fig02_mpki_limits --quick --strict \
    > "$FAULT_DIR/clean.out" 2> "$FAULT_DIR/clean.err"
LLBP_CACHE_DIR="$FAULT_DIR/faulty" LLBP_FAULT_SPEC="panic:cell=0" \
    ./target/release/fig02_mpki_limits --quick --strict \
    > "$FAULT_DIR/faulty.out" 2> "$FAULT_DIR/faulty.err" || {
    echo "fault smoke: injected panic was not retried away:"; cat "$FAULT_DIR/faulty.err"; exit 1
}
cmp -s "$FAULT_DIR/clean.out" "$FAULT_DIR/faulty.out" || {
    echo "fault smoke: fault-injected run changed the figure output:"
    diff "$FAULT_DIR/clean.out" "$FAULT_DIR/faulty.out" || true
    exit 1
}

echo "== concurrent-campaign smoke =="
# Two campaigns racing the same grid on one cache root must serialize on
# the journal lock or fail fast with the contention exit (3) — and the
# shared journal must contain zero malformed lines either way.
RACE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR" "$RACE_DIR"' EXIT
set +e
LLBP_CACHE_DIR="$RACE_DIR" ./target/release/fig02_mpki_limits --quick \
    > /dev/null 2> "$RACE_DIR/a.err" &
PID_A=$!
LLBP_CACHE_DIR="$RACE_DIR" ./target/release/fig02_mpki_limits --quick \
    > /dev/null 2> "$RACE_DIR/b.err" &
PID_B=$!
wait "$PID_A"; STATUS_A=$?
wait "$PID_B"; STATUS_B=$?
set -e
for status in "$STATUS_A" "$STATUS_B"; do
    if [ "$status" -ne 0 ] && [ "$status" -ne 3 ]; then
        echo "concurrent smoke: campaign exited $status (want 0 or 3):"
        cat "$RACE_DIR/a.err" "$RACE_DIR/b.err"; exit 1
    fi
done
if [ "$STATUS_A" -ne 0 ] && [ "$STATUS_B" -ne 0 ]; then
    echo "concurrent smoke: both campaigns lost the lock race:"
    cat "$RACE_DIR/a.err" "$RACE_DIR/b.err"; exit 1
fi
grep -Ehv '^(ok [0-9]+ [0-9a-f]{32} ([0-9a-f]{32}|-)|failed [0-9]+ [a-z_]+|stale [0-9]+ [0-9a-f]{32})$' \
    "$RACE_DIR"/*.journal > "$RACE_DIR/malformed" 2>/dev/null && {
    echo "concurrent smoke: malformed journal lines:"; cat "$RACE_DIR/malformed"; exit 1
}
LLBP_CACHE_DIR="$RACE_DIR" ./target/release/fig02_mpki_limits --quick --resume --strict \
    > /dev/null 2>&1 || {
    echo "concurrent smoke: post-race resume failed"; exit 1
}

echo "== verify-resume smoke =="
# A bit-flipped memo cell must be detected by --verify-resume, demoted
# (stale>=1 in the throughput record), re-run, and the final figure must
# match the untampered run byte-for-byte.
VERIFY_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR" "$RACE_DIR" "$VERIFY_DIR"' EXIT
LLBP_CACHE_DIR="$VERIFY_DIR" ./target/release/fig02_mpki_limits --quick --strict \
    > "$VERIFY_DIR/clean.out" 2> /dev/null
CELL="$(ls "$VERIFY_DIR"/results/*.llbr | head -n 1)"
# Flip one payload bit (offset 10 sits inside the checksummed payload).
ORIG="$(dd if="$CELL" bs=1 skip=10 count=1 status=none | od -An -tu1 | tr -d ' ')"
printf "$(printf '\\%03o' $((ORIG ^ 4)))" | dd of="$CELL" bs=1 seek=10 conv=notrunc status=none
LLBP_CACHE_DIR="$VERIFY_DIR" ./target/release/fig02_mpki_limits --quick --verify-resume --strict \
    > "$VERIFY_DIR/verify.out" 2> "$VERIFY_DIR/verify.err" || {
    echo "verify smoke: verified resume failed:"; cat "$VERIFY_DIR/verify.err"; exit 1
}
grep -Eq '"stale":[1-9]' "$VERIFY_DIR/verify.err" || {
    echo "verify smoke: tampered cell was not demoted:"; cat "$VERIFY_DIR/verify.err"; exit 1
}
cmp -s "$VERIFY_DIR/clean.out" "$VERIFY_DIR/verify.out" || {
    echo "verify smoke: verified resume changed the figure output:"
    diff "$VERIFY_DIR/clean.out" "$VERIFY_DIR/verify.out" || true
    exit 1
}

echo "== telemetry smoke =="
# An observed quick sweep must leave a parseable Chrome trace-event file
# containing every per-job stage span, a Prometheus snapshot with the
# matching histograms, and an obs_tool summary that reads both.
TEL_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR" "$RACE_DIR" "$VERIFY_DIR" "$TEL_DIR"' EXIT
LLBP_CACHE_DIR="$TEL_DIR" ./target/release/fig02_mpki_limits --quick \
    --trace-events "$TEL_DIR/trace.json" --metrics-out "$TEL_DIR/metrics.prom" \
    > "$TEL_DIR/observed-cold.out" 2> "$TEL_DIR/observed-cold.err"
for span in queue_wait memo_probe generation simulation write_back; do
    grep -q "\"name\":\"$span\"" "$TEL_DIR/trace.json" || {
        echo "telemetry smoke: stage span '$span' missing from trace events"; exit 1
    }
done
./target/release/obs_tool summarize "$TEL_DIR/trace.json" > "$TEL_DIR/summary.md" || {
    echo "telemetry smoke: obs_tool failed to parse the trace-event file"; exit 1
}
grep -q '| simulation |' "$TEL_DIR/summary.md" || {
    echo "telemetry smoke: summary lacks the simulation stage:"; cat "$TEL_DIR/summary.md"; exit 1
}
grep -q '^llbp_simulation_count' "$TEL_DIR/metrics.prom" || {
    echo "telemetry smoke: metrics snapshot lacks the simulation histogram:"
    cat "$TEL_DIR/metrics.prom"; exit 1
}

echo "== telemetry overhead gate =="
# Telemetry must never perturb results: with it disabled again, a warm
# run and a fresh cold run both print the byte-identical figure the
# observed run did. (The zero-cost claim itself is pinned by the obs
# crate's zero-allocation test; this gate pins output equivalence.)
LLBP_CACHE_DIR="$TEL_DIR" ./target/release/fig02_mpki_limits --quick \
    > "$TEL_DIR/plain-warm.out" 2> /dev/null
cmp -s "$TEL_DIR/observed-cold.out" "$TEL_DIR/plain-warm.out" || {
    echo "overhead gate: disabled-telemetry warm run changed the figure output:"
    diff "$TEL_DIR/observed-cold.out" "$TEL_DIR/plain-warm.out" || true
    exit 1
}
LLBP_CACHE_DIR="$TEL_DIR/cold2" ./target/release/fig02_mpki_limits --quick \
    > "$TEL_DIR/plain-cold.out" 2> /dev/null
cmp -s "$TEL_DIR/observed-cold.out" "$TEL_DIR/plain-cold.out" || {
    echo "overhead gate: disabled-telemetry cold run changed the figure output:"
    diff "$TEL_DIR/observed-cold.out" "$TEL_DIR/plain-cold.out" || true
    exit 1
}

echo "== backend parity smoke =="
# The same quick figure cell run under every execution backend must print
# the byte-identical figure (stdout only — stderr carries wall times).
# Separate cold cache dirs per backend keep the memo store from serving
# one backend's cells to another, so each tier actually simulates.
BACKEND_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR" "$RACE_DIR" "$VERIFY_DIR" "$TEL_DIR" "$BACKEND_DIR"' EXIT
LLBP_CACHE_DIR="$BACKEND_DIR/reference" ./target/release/fig02_mpki_limits --quick --strict \
    --backend reference > "$BACKEND_DIR/reference.out" 2> /dev/null
for backend in batch auto; do
    LLBP_CACHE_DIR="$BACKEND_DIR/$backend" ./target/release/fig02_mpki_limits --quick --strict \
        --backend "$backend" > "$BACKEND_DIR/$backend.out" 2> "$BACKEND_DIR/$backend.err"
    cmp -s "$BACKEND_DIR/reference.out" "$BACKEND_DIR/$backend.out" || {
        echo "backend smoke: backend '$backend' changed the figure output:"
        diff "$BACKEND_DIR/reference.out" "$BACKEND_DIR/$backend.out" || true
        exit 1
    }
    # The build of the history/hash loops behind the numbers.
    KERNEL="$(grep -Eo '"kernel":"(avx512|baseline)"' "$BACKEND_DIR/$backend.err")" || {
        echo "backend smoke: throughput record names no kernel:"; cat "$BACKEND_DIR/$backend.err"; exit 1
    }
    echo "backend smoke: $backend ran $KERNEL"
done
# The env-var selector must work too (flag wins over env elsewhere; here
# the env alone drives the choice).
LLBP_CACHE_DIR="$BACKEND_DIR/env" LLBP_BACKEND=batch ./target/release/fig02_mpki_limits \
    --quick --strict > "$BACKEND_DIR/env.out" 2> /dev/null
cmp -s "$BACKEND_DIR/reference.out" "$BACKEND_DIR/env.out" || {
    echo "backend smoke: LLBP_BACKEND=batch changed the figure output:"
    diff "$BACKEND_DIR/reference.out" "$BACKEND_DIR/env.out" || true
    exit 1
}

# fig09 runs three cells per trace as one staged unit on the batch tier
# (64K TSL, LLBP, LLBP-0Lat): its figure must match the reference tier's,
# and one worker (whole units) must print what two workers print.
LLBP_CACHE_DIR="$BACKEND_DIR/fig09-reference" ./target/release/fig09_mpki_reduction --quick \
    --strict --backend reference > "$BACKEND_DIR/fig09-reference.out" 2> /dev/null
for workers in 1 2; do
    LLBP_CACHE_DIR="$BACKEND_DIR/fig09-w$workers" LLBP_WORKERS=$workers \
        ./target/release/fig09_mpki_reduction --quick --strict --backend batch \
        > "$BACKEND_DIR/fig09-w$workers.out" 2> /dev/null
    cmp -s "$BACKEND_DIR/fig09-reference.out" "$BACKEND_DIR/fig09-w$workers.out" || {
        echo "backend smoke: fig09 on the batch tier at $workers worker(s) changed the figure:"
        diff "$BACKEND_DIR/fig09-reference.out" "$BACKEND_DIR/fig09-w$workers.out" || true
        exit 1
    }
done
echo "backend smoke: fig09 units match the reference tier at 1 and 2 workers"

# Starts llbp_serve over cache root $1 with the caller's environment,
# logging to $2.addr / $2.err; sets SERVE_PID and SERVE_ADDR.
start_serve() {
    ./target/release/llbp_serve --root "$1" --print-addr > "$2.addr" 2> "$2.err" &
    SERVE_PID=$!
    for _ in $(seq 50); do [ -s "$2.addr" ] && break; sleep 0.1; done
    [ -s "$2.addr" ] || {
        echo "llbp_serve never printed its address:"; cat "$2.err"
        kill "$SERVE_PID" 2>/dev/null || true; exit 1
    }
    SERVE_ADDR="tcp://$(cat "$2.addr")"
}

# Asks the daemon at SERVE_ADDR to shut down and requires a clean exit.
stop_serve() {
    ./target/release/llbp_client --server "$SERVE_ADDR" shutdown 2> /dev/null || {
        echo "$1: shutdown request failed"
        kill "$SERVE_PID" 2>/dev/null || true; exit 1
    }
    SERVE_STATUS=0
    wait "$SERVE_PID" || SERVE_STATUS=$?
    [ "$SERVE_STATUS" -eq 0 ] || { echo "$1: daemon exited $SERVE_STATUS after shutdown"; exit 1; }
}

echo "== daemon chaos smoke =="
# A 2-worker daemon whose cell 0 stalls is killed with SIGKILL right after
# it publishes its first cell, holding the grid's journal lock. Every
# complete line of the journal it leaves must parse. A fresh daemon on
# the same root must take over the dead holder's lock and, through one
# injected client-side disconnect, serve stdout byte-identical to a
# serial local run.
CHAOS_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR" "$RACE_DIR" "$VERIFY_DIR" "$TEL_DIR" "$BACKEND_DIR" "$CHAOS_DIR"' EXIT
LLBP_CACHE_DIR="$CHAOS_DIR/serial" ./target/release/fig02_mpki_limits --quick \
    --workloads HTTP,Kafka,Tomcat > "$CHAOS_DIR/serial.out" 2> /dev/null
LLBP_WORKERS=2 LLBP_FAULT_SPEC="slow:cell=0,ms=60000" start_serve "$CHAOS_DIR/shared" "$CHAOS_DIR/killed"
./target/release/llbp_client --server "$SERVE_ADDR" submit --quick \
    --workloads HTTP,Kafka,Tomcat > /dev/null 2> "$CHAOS_DIR/submit.err" || {
    echo "daemon chaos smoke: submission failed:"; cat "$CHAOS_DIR/submit.err"
    kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
for _ in $(seq 1200); do
    ls "$CHAOS_DIR"/shared/results/*.llbr > /dev/null 2>&1 && break
    sleep 0.1
done
ls "$CHAOS_DIR"/shared/results/*.llbr > /dev/null 2>&1 || {
    echo "daemon chaos smoke: no cell published within 120 s:"; cat "$CHAOS_DIR/killed.err"
    kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
ls "$CHAOS_DIR"/shared/*.journal > /dev/null 2>&1 || {
    echo "daemon chaos smoke: the killed daemon left no journal:"; ls -l "$CHAOS_DIR/shared"; exit 1
}
for journal in "$CHAOS_DIR"/shared/*.journal; do
    # The kill may tear the final line; only newline-terminated lines count.
    if [ -n "$(tail -c 1 "$journal")" ]; then sed '$d' "$journal"; else cat "$journal"; fi
done | grep -Ev '^(ok [0-9]+ [0-9a-f]{32} ([0-9a-f]{32}|-)|failed [0-9]+ [a-z_]+|stale [0-9]+ [0-9a-f]{32})$' \
    > "$CHAOS_DIR/malformed" && {
    echo "daemon chaos smoke: malformed journal lines:"; cat "$CHAOS_DIR/malformed"; exit 1
}
start_serve "$CHAOS_DIR/shared" "$CHAOS_DIR/fresh"
LLBP_CACHE_DIR="$CHAOS_DIR/client" LLBP_FAULT_SPEC="net:disconnect:count=1" \
    ./target/release/fig02_mpki_limits --quick --workloads HTTP,Kafka,Tomcat \
    --server "$SERVE_ADDR" > "$CHAOS_DIR/chaos.out" 2> "$CHAOS_DIR/chaos.err" || {
    echo "daemon chaos smoke: run on the fresh daemon failed:"; cat "$CHAOS_DIR/chaos.err"
    kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
stop_serve "daemon chaos smoke"
cmp -s "$CHAOS_DIR/serial.out" "$CHAOS_DIR/chaos.out" || {
    echo "daemon chaos smoke: recovered stdout diverged from the serial run:"
    diff "$CHAOS_DIR/serial.out" "$CHAOS_DIR/chaos.out" || true
    exit 1
}
grep -Eq '"lock_takeovers":[1-9]' "$CHAOS_DIR/chaos.err" || {
    echo "daemon chaos smoke: the killed daemon's journal lock was never taken over:"
    cat "$CHAOS_DIR/chaos.err"; exit 1
}

echo "== serve daemon smoke =="
# A sweep routed through the resident daemon with --server — under one
# injected client-side disconnect — must print stdout byte-identical to
# a local run, expose live Prometheus metrics, and shut down cleanly.
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR" "$RACE_DIR" "$VERIFY_DIR" "$TEL_DIR" "$BACKEND_DIR" "$CHAOS_DIR" "$SERVE_DIR"' EXIT
LLBP_CACHE_DIR="$SERVE_DIR/local" ./target/release/fig02_mpki_limits --quick \
    > "$SERVE_DIR/local.out" 2> /dev/null
start_serve "$SERVE_DIR/shared" "$SERVE_DIR/serve"
LLBP_CACHE_DIR="$SERVE_DIR/client" LLBP_FAULT_SPEC="net:disconnect:count=1" \
    ./target/release/fig02_mpki_limits --quick --server "$SERVE_ADDR" \
    > "$SERVE_DIR/remote.out" 2> "$SERVE_DIR/remote.err" || {
    echo "serve smoke: remote run failed:"; cat "$SERVE_DIR/remote.err"
    kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
cmp -s "$SERVE_DIR/local.out" "$SERVE_DIR/remote.out" || {
    echo "serve smoke: --server run diverged from the local run:"
    diff "$SERVE_DIR/local.out" "$SERVE_DIR/remote.out" || true
    kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
grep -q '"store":"serve"' "$SERVE_DIR/remote.err" || {
    echo "serve smoke: remote throughput record does not say serve tier:"
    cat "$SERVE_DIR/remote.err"; kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
./target/release/llbp_client --server "$SERVE_ADDR" metrics > "$SERVE_DIR/metrics.prom" || {
    echo "serve smoke: metrics scrape failed"
    kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
grep -q '^llbp_serve_campaigns_total' "$SERVE_DIR/metrics.prom" || {
    echo "serve smoke: metrics lack the campaign counter:"
    cat "$SERVE_DIR/metrics.prom"; kill "$SERVE_PID" 2>/dev/null || true; exit 1
}
stop_serve "serve smoke"

echo "== provenance smoke =="
# Recording must be free when off and observational when on: stdout is
# byte-identical either way, `prov_tool why` reports the same hottest
# mispredicting branches on every invocation, and the recorder costs
# <3% wall time. The cost is timed in-process over fig02's quick cells
# (prov_overhead.rs: each cell's fastest of 5 runs per side, in off/on
# pairs whose first side alternates), so process start-up, trace decodes
# and store writes, which both sides share, stay out of the ratio.
PROV_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FAULT_DIR" "$RACE_DIR" "$VERIFY_DIR" "$TEL_DIR" "$BACKEND_DIR" "$CHAOS_DIR" "$SERVE_DIR" "$PROV_DIR"' EXIT
LLBP_CACHE_DIR="$PROV_DIR/off1" ./target/release/fig02_mpki_limits --quick --strict \
    > "$PROV_DIR/off1.out" 2> "$PROV_DIR/off1.err"
LLBP_CACHE_DIR="$PROV_DIR/on1" ./target/release/fig02_mpki_limits --quick --strict --prov \
    > "$PROV_DIR/on1.out" 2> "$PROV_DIR/on1.err"
cmp -s "$PROV_DIR/off1.out" "$PROV_DIR/on1.out" || {
    echo "prov smoke: --prov changed the figure output:"
    diff "$PROV_DIR/off1.out" "$PROV_DIR/on1.out" || true
    exit 1
}
grep -q '"prov":{"streams":' "$PROV_DIR/on1.err" || {
    echo "prov smoke: recorded run has no prov section:"; cat "$PROV_DIR/on1.err"; exit 1
}
grep -q '"prov"' "$PROV_DIR/off1.err" && {
    echo "prov smoke: plain run leaked a prov section:"; cat "$PROV_DIR/off1.err"; exit 1
}
cargo test --release --offline --quiet -p llbp-sim --test prov_overhead -- --ignored --nocapture || {
    echo "prov smoke: recorder overhead exceeds 3%"; exit 1
}
./target/release/prov_tool why "$PROV_DIR/on1" --label "64K TSL" --workload Tomcat --top 10 \
    > "$PROV_DIR/why1.md" || {
    echo "prov smoke: prov_tool why failed on the recorded cache"; exit 1
}
./target/release/prov_tool why "$PROV_DIR/on1" --label "64K TSL" --workload Tomcat --top 10 \
    > "$PROV_DIR/why2.md"
cmp -s "$PROV_DIR/why1.md" "$PROV_DIR/why2.md" || {
    echo "prov smoke: prov_tool why is not deterministic:"
    diff "$PROV_DIR/why1.md" "$PROV_DIR/why2.md" || true
    exit 1
}
# The top-ranked branch must be a real mispredictor with attribution.
grep -Eq '^ +1  0x[0-9a-f]+ +[1-9][0-9]* +(bim|tage|sc|loop|llbp):' "$PROV_DIR/why1.md" || {
    echo "prov smoke: why report lists no attributed hottest branch:"
    cat "$PROV_DIR/why1.md"; exit 1
}

echo "tier1 OK"
