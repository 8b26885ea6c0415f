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
#                           `allocs_per_op` @ `mote_scale` reaches 2
#                           on either seed (a per-firing allocation is
#                           back in the timer engine, or a read
#                           allocates at all) or @ `registry_churn`
#                           reaches 400 (a lookup is copying its
#                           results again), @ `flat_read` or
#                           `tree_read` reaches 1 or @ `tenant_storm`
#                           1.40 / 1.42 on seed 42 / 7 (a read rebuilds
#                           its request or its bind template instead of
#                           re-arming the one its requestor lends,
#                           copies a unit out of its reply, or a
#                           composite read allocates its outcome list,
#                           readings or breadcrumb, a child hop is
#                           shipped a copy of its request, a façade
#                           call builds its request again instead of
#                           re-arming its session's, or a composite's
#                           re-bind or failover builds its template
#                           again), or if
#                           `heap_peak_mb` @ `mote_scale` reaches 124
#                           (the bank's motes sit in a doubling `Vec`
#                           again, or a stored measurement costs more
#                           than 17 bytes) or @
#                           `registry_churn` 15.5 (a
#                           registration's index copies its names again,
#                           or its lease sits in a tree node), or if
#                           `wire_bytes_per_op` @ `flat_read`,
#                           `tree_read`, `tenant_storm` or `mote_scale`
#                           exceeds its count + 1 % on either seed (a
#                           binding that opens a new connection on every
#                           call again). Timings from a 2 s pass are not
#                           comparable with anything.
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
        # Counts, exact whatever the run length; each ceiling is the
        # count plus one. flat_read / tree_read: 0, mote_scale: 1 (the
        # yardstick's own `format!` of the composite name) and
        # tenant_storm: 0.39 on seed 42, 0.41 on seed 7 (a shed read's
        # rejection text, the admission gate's and the SLO engine's
        # bookkeeping, a degraded read's lists) while every read
        # re-arms its requestor's one lent request and template and
        # shares its unit with the reply, and every façade call re-arms
        # its requesting host's session.
        # A requestor that builds its task and bind template per read
        # again costs +11 per read (12 / 13 on flat_read / tree_read,
        # +11.2 on tenant_storm, where the façade's inner read is the
        # requestor); a unit copied out of its reply +1 per copy, about
        # +2.8 on tenant_storm (the façade's and the tenant's copy).
        # On tenant_storm alone (12.62 / 12.30 before the façade hop was
        # lent): a façade call that builds its session again (its task's
        # label, signature, argument context, texts and trace) costs
        # +12.0; a composite whose re-bind and failover build their bind
        # templates again costs +1.8 on its crash path.
        # mote_scale was 14 before the read was lent, 4 488 when every
        # timer firing boxed a fresh closure. Below the requestor, a
        # composite read that rebuilds its outcome list, slot frame or
        # breadcrumb costs +3 per composite, +219 on tree_read's 73; a
        # child hop that clones its request instead of being lent the
        # one in flight costs two more (the copy's context buffer, its
        # trace line): +128 / +1 168 / about +37 on tenant_storm; a
        # façade that copies its tenant, service and reply context per
        # read +3.9 on tenant_storm.
        # registry_churn: 299 while lookups share the stored items, sizes
        # are added up and results are sized once; 341 when results grew
        # by doubling and every hierarchical query by subnet, 5 013 when
        # every matched item was deep-cloned and encoded into a scratch
        # buffer to be measured.
        case $seed in
            42) storm_allocs=1.40 ;;
            *) storm_allocs=1.42 ;;
        esac
        for gate in mote_scale:2 registry_churn:400 flat_read:1 tree_read:1 tenant_storm:$storm_allocs; do
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
        # Wire bytes, exact too; each ceiling is the count plus 1 % (seed
        # 42 / 7). flat_read: 31 035 / 31 037 while every binding keeps
        # its connection, 50 175 when each of a read's 66 exchanges opened
        # one (290 B of SYN..FIN-ACK each); a composite whose child
        # bindings reopen costs +64 x 290 B (+60 %). tree_read: 307 538 /
        # 307 544, 477 478 with every one of its 586 exchanges opening. A
        # lone requestor hop or lookup that reopens (+290 B, 0.9 % and
        # 0.1 %) stays under both. tenant_storm: 4 811 / 4 768 while
        # each requesting host's façade session keeps its connection,
        # 5 101 / 5 058 when every façade call opened one, 7 840 / 7 786
        # before that; a façade call that opens its connection again
        # costs +290 B (+6 %), and so does a façade that reopens its
        # connection to the composite on every read. mote_scale:
        # 47 006 / 46 995, 106 197 / 106 186 before; renewal services
        # that open a connection per renewal (about 200 an op) cost
        # +59 000 B.
        case $seed in
            42) wire="flat_read:31346 tree_read:310614 tenant_storm:4859 mote_scale:47477" ;;
            *) wire="flat_read:31348 tree_read:310619 tenant_storm:4815 mote_scale:47466" ;;
        esac
        for gate in $wire; do
            workload=${gate%:*}
            limit=${gate#*:}
            bytes=$(yardstick_metric "$workload" wire_bytes_per_op)
            awk -v b="$bytes" -v l="$limit" 'BEGIN { exit !(b != "" && b <= l) }' || {
                echo "$workload wire_bytes_per_op = ${bytes:-missing} on seed $seed, limit $limit" >&2
                exit 1
            }
        done
    done
fi

echo "ci: ok"
