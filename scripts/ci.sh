#!/usr/bin/env sh
# CI entry point.
#
#   scripts/ci.sh           tier-1: release build + full test suite
#                           (tests/committed_artifacts.rs regenerates
#                           every committed report on the default seed
#                           and compares it byte for byte, protobuf
#                           magic byte included; tests/federation_oracle.rs
#                           holds every composite read to a reference model)
#   scripts/ci.sh --lint    tier-1, then the static-analysis gate: cargo
#                           clippy -D warnings over every target with the
#                           repo's clippy.toml; it fails on an
#                           unwrap()/expect() in non-test code of any
#                           crate but bench, a wall-clock read
#                           (Instant::now, SystemTime::now) or a thread
#                           (thread::spawn, thread::scope) in any crate,
#                           and an #[expect] escape that is stale or names
#                           an unknown lint. Then rustdoc with warnings
#                           denied (a broken, private or ambiguous
#                           intra-doc link, a bare URL), and cargo fmt
#                           --check when rustfmt is installed
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
#                           copying its results again), @ `flat_read`
#                           reaches 16, @ `tree_read` 24 or @
#                           `tenant_storm` 29 (a composite read
#                           allocates its outcome list, its readings or
#                           its breadcrumb again, a child hop is
#                           shipped a copy of its request instead of
#                           being lent the one in flight, or a façade
#                           read copies its tenant, service or reply
#                           context again), or if
#                           `heap_peak_mb` @ `mote_scale` reaches 124
#                           (the bank's motes sit in a doubling `Vec`
#                           again, or a stored measurement costs more
#                           than 17 bytes) or @
#                           `registry_churn` 15.5 (a
#                           registration's index copies its names again,
#                           or its lease sits in a tree node). Timings
#                           from a 2 s pass are not comparable with
#                           anything.
#
# Everything runs offline against the vendored workspace; no network,
# no external tools beyond cargo.
set -eu

cd "$(dirname "$0")/.."

lint=0
yardstick=0
for arg in "$@"; do
    case "$arg" in
        --lint) lint=1 ;;
        --yardstick) yardstick=1 ;;
        *) echo "usage: scripts/ci.sh [--lint] [--yardstick]" >&2; exit 2 ;;
    esac
done

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

if [ "$lint" -eq 1 ]; then
    echo "== clippy (deny warnings) =="
    cargo clippy --workspace --all-targets -q -- \
        -D warnings -D clippy::dbg_macro -D clippy::todo -D clippy::unimplemented

    echo "== rustdoc (deny warnings) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

    if command -v rustfmt >/dev/null 2>&1; then
        echo "== rustfmt --check =="
        cargo fmt --check
    else
        echo "== rustfmt not installed; skipping format check =="
    fi
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
        # mote's sampling tick is a (group, slot) entry in its interval's
        # lane, whose capacity is reached at setup, re-armed by move, and
        # samples into the mote bank's preallocated ring; 4 488 when every
        # firing boxed a fresh closure.
        # registry_churn: 299 while lookups share the stored items, sizes
        # are added up and results are sized once; 341 when results grew
        # by doubling and every hierarchical query by subnet, 5 013 when
        # every matched item was deep-cloned and encoded into a scratch
        # buffer to be measured. flat_read / tree_read: 12 / 13 while a
        # composite read keeps its outcome list and slot frame in
        # per-thread scratch, binds its readings straight into the frame
        # and reuses its breadcrumb; rebuilding the three costs +3 per
        # composite read, +219 on tree_read's 73 composites. A child hop
        # that clones its request instead of being lent the one in
        # flight costs two more (the copy's context buffer, its trace
        # line): +128 / +1 168 / about +37 on tenant_storm.
        # tenant_storm: 26.64 on seed 42 and 26.29 on seed 7 while the
        # façade also holds its tenant and service as the request's
        # shared text, the gate copies a tenant's name only when it
        # first sees it and the reply context is moved out; 30.58 /
        # 30.23 when the three were copied per read.
        for gate in mote_scale:16 registry_churn:400 flat_read:16 tree_read:24 tenant_storm:29; do
            workload=${gate%:*}
            limit=${gate#*:}
            allocs=$(yardstick_metric "$workload" allocs_per_op)
            awk -v a="$allocs" -v l="$limit" 'BEGIN { exit !(a != "" && a < l) }' || {
                echo "$workload allocs_per_op = ${allocs:-missing} on seed $seed, limit $limit" >&2
                exit 1
            }
        done
        # Byte counts, as exact. mote_scale: 121.8 while the 20 000 motes'
        # simulated probes sit inline in the bank's 64-mote pages, each
        # ring is one allocation of 256 packed 17-byte records, and a
        # sampling tick is an index into one callback; 127.8 with the
        # motes in one doubling `Vec` instead of pages; 123.4 when the
        # bank was one `Vec` of 80-byte slots and boxed probes; 125.8 when
        # each provider held its probe, ring and uuid string and each tick
        # a boxed closure and a liveness flag; 165.7 when rings kept whole
        # `Measurement`s (18 bytes of information padded to 24).
        # registry_churn: 14.99 while attribute postings
        # are keyed by a hash, each interface name is stored once and
        # leases sit densely in chunks; 15.95 with a `String` key per
        # posting again, 15.91 with leases in a `BTreeMap`, 16.44 with a
        # name copy per item, 18.00 with all three.
        for gate in mote_scale:124 registry_churn:15.5; do
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
