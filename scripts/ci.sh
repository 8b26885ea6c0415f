#!/usr/bin/env sh
# CI entry point.
#
#   scripts/ci.sh           tier-1: release build + full test suite
#                           (tests/committed_artifacts.rs reads back
#                           every committed report; tests/federation_oracle.rs
#                           holds every composite read to a reference model)
#   scripts/ci.sh --soak    tier-1, then the seeded chaos soak
#                           (bounded, deterministic; exits nonzero on any
#                           degraded-read invariant violation), whose
#                           report must equal CHAOS_1.json
#   scripts/ci.sh --trace   tier-1, then the traced soak (exits nonzero
#                           on orphan/unclosed/duplicate spans or any
#                           unexplained degraded read), whose summary must
#                           equal TRACE_1.json, span-export fingerprint
#                           included
#   scripts/ci.sh --lint    tier-1, then the static-analysis gate. The
#                           source gate is cargo clippy -D warnings over
#                           every target with the repo's clippy.toml; it
#                           fails on an unwrap()/expect() in non-test code
#                           of any crate but bench, a wall-clock read
#                           (Instant::now, SystemTime::now) outside bench,
#                           and an #[expect] escape that is stale or names
#                           an unknown lint. Then `harness verify`
#                           (schedule exploration + mutation check; its
#                           report must equal VERIFY_1.json), and cargo
#                           fmt --check when rustfmt is installed
#   scripts/ci.sh --obs     tier-1, then the federation health engine:
#                           `harness obs` (SLO burn-rate alerting over
#                           the chaos soak; the storm must page with
#                           trace exemplars, the clean run must not),
#                           whose report must equal OBS_1.json
#   scripts/ci.sh --storm   tier-1, then the tenant storm: a bulk-tenant
#                           burst against the admission-controlled façade
#                           (typed sheds only, critical SLO intact, full
#                           circuit-breaker lifecycle, autoscaler up and
#                           back down without flapping), whose report
#                           must equal STORM_1.json
#   scripts/ci.sh --perfetto  tier-1, then the Perfetto export leg:
#                           `harness perfetto` runs the tenant storm with
#                           the telemetry sampler attached and writes the
#                           binary trace (the run fails unless the in-repo
#                           decoder validates the stream); checks the
#                           protobuf magic byte, and the summary, stream
#                           fingerprint included, must equal
#                           PERFETTO_1.json
#   scripts/ci.sh --perfetto-scale  tier-1, then the streaming export
#                           leg on a reduced world (10⁴ motes — the full
#                           10⁵ federation is `harness perfetto-scale`
#                           with no SENSORCER_PERFETTO_MOTES override):
#                           the 16-subnet mote world is streamed to disk
#                           incrementally, self-validated by the in-repo
#                           decoder, held under the documented encoder
#                           memory ceiling, and checked bit-identical
#                           across two runs on the same seed
#   scripts/ci.sh --yardstick  tier-1, then the federated-read yardstick
#                           (`benchmark/`, a package of its own that the
#                           workspace build never sees): build it, run
#                           its scripted-sensor answer check and its own
#                           tests, then a short full run on the
#                           development seed 42 and the held-out seed 7.
#                           Op counts of the count pass are frozen, so
#                           `result_fnv64` is compared with
#                           benchmark/expected.tsv whatever the run
#                           length: a change that moves the modelled
#                           protocol fails here. Also fails if
#                           `allocs_per_op` @ `mote_scale` reaches 16
#                           on either seed (a per-firing allocation is
#                           back in the timer engine) or @
#                           `registry_churn` reaches 400 (a lookup is
#                           copying its results, or serialising an item
#                           to learn its size, again), @ `flat_read`
#                           reaches 16, @ `tree_read` 24 or @
#                           `tenant_storm` 36 (a composite read
#                           allocates its outcome list, its readings or
#                           its breadcrumb again, or a child hop is
#                           shipped a copy of its request instead of
#                           being lent the one in flight), or if
#                           `heap_peak_mb` @ `mote_scale` reaches 135
#                           (a stored measurement costs more than 17
#                           bytes again) or @ `registry_churn` 15.5 (a
#                           registration's index copies its names again,
#                           or its lease sits in a tree node). Timings
#                           from a 2 s pass are not comparable with
#                           anything.
#
# Every harness leg exits nonzero when its own run fails, so the legs
# check only what a run cannot see itself: that the committed report is
# what the same seed writes today, and a Perfetto stream's first byte. A
# leg writes its report to a *_ci path and compares it with the committed
# file, so a stale artefact fails CI and CI never rewrites a tracked file
# (regenerate one with `harness <verb>` and commit it).
#
# Everything runs offline against the vendored workspace; no network,
# no external tools beyond cargo.
set -eu

cd "$(dirname "$0")/.."

soak=0
trace=0
lint=0
obs=0
storm=0
perfetto=0
perfetto_scale=0
yardstick=0
# 0x5E2509, the harness default seed: a leg that names its output path
# must spell the seed out, because the seed positional comes first.
default_seed=6169865
for arg in "$@"; do
    case "$arg" in
        --soak) soak=1 ;;
        --trace) trace=1 ;;
        --lint) lint=1 ;;
        --obs) obs=1 ;;
        --storm) storm=1 ;;
        --perfetto) perfetto=1 ;;
        --perfetto-scale) perfetto_scale=1 ;;
        --yardstick) yardstick=1 ;;
        *) echo "usage: scripts/ci.sh [--soak] [--trace] [--lint] [--obs] [--storm] [--perfetto] [--perfetto-scale] [--yardstick]" >&2; exit 2 ;;
    esac
done

# `regen <verb> <committed> <out> [report]`: run `harness <verb>` on the
# default seed into <out>; the report it wrote (<out>, or the [report]
# beside a Perfetto stream) must equal <committed> byte for byte. On a
# mismatch the new report is kept for a diff.
regen() {
    echo "== harness $1 (against $2) =="
    cargo run --release -p sensorcer-bench --bin harness -- "$1" "$default_seed" "$3"
    report=${4:-$3}
    cmp "$2" "$report" || {
        echo "$2 is stale: seed $default_seed now writes $report" >&2
        exit 1
    }
    rm -f "$report"
}

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

if [ "$soak" -eq 1 ]; then
    regen chaos CHAOS_1.json CHAOS_ci.json
fi

if [ "$trace" -eq 1 ]; then
    regen trace TRACE_1.json TRACE_ci.json
    rm -f TRACE_ci.spans.json
fi

if [ "$lint" -eq 1 ]; then
    echo "== clippy (deny warnings) =="
    cargo clippy --workspace --all-targets -q -- \
        -D warnings -D clippy::dbg_macro -D clippy::todo -D clippy::unimplemented

    regen verify VERIFY_1.json VERIFY_ci.json

    if command -v rustfmt >/dev/null 2>&1; then
        echo "== rustfmt --check =="
        cargo fmt --check
    else
        echo "== rustfmt not installed; skipping format check =="
    fi
fi

if [ "$obs" -eq 1 ]; then
    regen obs OBS_1.json OBS_ci.json
fi

if [ "$storm" -eq 1 ]; then
    regen storm STORM_1.json STORM_ci.json
fi

if [ "$perfetto" -eq 1 ]; then
    regen perfetto PERFETTO_1.json PERFETTO_ci.perfetto-trace \
        PERFETTO_ci.perfetto-trace.summary.json
    # The stream must open with the Trace.packet tag (field 1,
    # length-delimited = 0x0a) or ui.perfetto.dev will reject it.
    [ "$(head -c 1 PERFETTO_ci.perfetto-trace | od -An -tx1 | tr -d ' \n')" = "0a" ] || {
        echo "PERFETTO_ci.perfetto-trace: bad protobuf magic byte" >&2
        exit 1
    }
    rm -f PERFETTO_ci.perfetto-trace
fi

if [ "$perfetto_scale" -eq 1 ]; then
    echo "== streaming perfetto export (reduced world, 10^4 motes) =="
    # The run self-validates: decoder verdict, encoder-memory ceiling and the
    # profiler's self-time/run-time identity are all folded into the
    # summary's "passed" field.
    SENSORCER_PERFETTO_MOTES=10000 \
        cargo run --release -p sensorcer-bench --bin harness -- \
        perfetto-scale "$default_seed" PERFETTO_scale_ci.perfetto-trace
    [ "$(head -c 1 PERFETTO_scale_ci.perfetto-trace | od -An -tx1 | tr -d ' \n')" = "0a" ] || {
        echo "PERFETTO_scale_ci.perfetto-trace: bad protobuf magic byte" >&2
        exit 1
    }

    echo "== streaming determinism: same seed, bit-identical bytes =="
    SENSORCER_PERFETTO_MOTES=10000 \
        cargo run --release -p sensorcer-bench --bin harness -- \
        perfetto-scale "$default_seed" PERFETTO_scale_ci2.perfetto-trace
    cmp PERFETTO_scale_ci.perfetto-trace PERFETTO_scale_ci2.perfetto-trace || {
        echo "streaming export is not bit-identical across runs on the same seed" >&2
        exit 1
    }
    rm -f PERFETTO_scale_ci.perfetto-trace PERFETTO_scale_ci.perfetto-trace.summary.json \
        PERFETTO_scale_ci2.perfetto-trace PERFETTO_scale_ci2.perfetto-trace.summary.json
fi

# One end-to-end metric of the last `benchmark/run.sh` pass of a workload.
yardstick_metric() {
    sed -n "s/.*\"$2\": {\"value\": \([0-9.]*\).*/\1/p" "benchmark/out/$1.end_to_end.json"
}

if [ "$yardstick" -eq 1 ]; then
    echo "== yardstick: build =="
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    echo "== yardstick: scripted sensors, answers asserted =="
    benchmark/run.sh --check
    echo "== yardstick: its own tests =="
    (cd benchmark && cargo test --offline -q)
    for seed in 42 7; do
        echo "== yardstick: seed $seed, result_fnv64 against benchmark/expected.tsv =="
        benchmark/run.sh --seed "$seed" --seconds 2
        # Counts, exact whatever the run length. mote_scale: 14 while a
        # repeating timer sits in its interval's lane, whose capacity is
        # reached at setup, and is re-armed by move; 4 488 when every
        # firing boxed a fresh closure.
        # registry_churn: 299 while lookups share the stored items, sizes
        # are added up and results are sized once; 341 when results grew
        # by doubling and every hierarchical query by subnet, 5 013 when
        # every matched item was deep-cloned and encoded into a scratch
        # buffer to be measured. flat_read / tree_read / tenant_storm:
        # 12 / 13 / about 30.5 while a composite read keeps its outcome
        # list and slot frame in per-thread scratch, binds its readings
        # straight into the frame and reuses its breadcrumb; rebuilding
        # the three costs +3 per composite read, +219 on tree_read's 73
        # composites. A child hop that clones its request instead of
        # being lent the one in flight costs two more (the copy's context
        # buffer, its trace line): +128 / +1 168 / about +37.
        for gate in mote_scale:16 registry_churn:400 flat_read:16 tree_read:24 tenant_storm:36; do
            workload=${gate%:*}
            limit=${gate#*:}
            allocs=$(yardstick_metric "$workload" allocs_per_op)
            awk -v a="$allocs" -v l="$limit" 'BEGIN { exit !(a != "" && a < l) }' || {
                echo "$workload allocs_per_op = ${allocs:-missing} on seed $seed, limit $limit" >&2
                exit 1
            }
        done
        # Byte counts, as exact. mote_scale: 127.3 while each of the 20 000
        # rings keeps 256 slots of 16 bytes and a one-byte tag, 165.7 when
        # it kept whole `Measurement`s (18 bytes of information padded to
        # 24). registry_churn: 14.99 while attribute postings are keyed by
        # a hash, each interface name is stored once and leases sit densely
        # in chunks; 15.95 with a `String` key per posting again, 15.91
        # with leases in a `BTreeMap`, 16.44 with a name copy per item, 18.00
        # with all three.
        for gate in mote_scale:135 registry_churn:15.5; do
            workload=${gate%:*}
            limit=${gate#*:}
            peak=$(yardstick_metric "$workload" heap_peak_mb)
            awk -v p="$peak" -v l="$limit" 'BEGIN { exit !(p != "" && p < l) }' || {
                echo "$workload heap_peak_mb = ${peak:-missing} on seed $seed, limit $limit" >&2
                exit 1
            }
        done
    done
fi

echo "ci: ok"
