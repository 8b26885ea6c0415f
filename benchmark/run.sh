#!/usr/bin/env bash
# The one command: build the benchmark, run every workload in a process of
# its own (end-to-end passes, then the traced pass), print every metric as
# `name value unit`, and leave the results under benchmark/out/.
#
#   benchmark/run.sh              full run, seed 42 (about three minutes)
#   benchmark/run.sh --seed 7     the held-out seed
#   benchmark/run.sh --smoke      1 s passes, op counts / 20: a quick look
#                                 (about 20 s), not comparable with a full run
#   benchmark/run.sh --aa         two full end-to-end sets back to back;
#                                 exits 1 if they disagree beyond the
#                                 bounds in BENCHMARK.json (exact metrics
#                                 and result_fnv64: by any difference)
#   benchmark/run.sh --check      scripted sensors, answers asserted
#   benchmark/run.sh --record     rewrite benchmark/expected.tsv from this
#                                 run (only when the modelled protocol was
#                                 changed on purpose)
set -euo pipefail
cd "$(dirname "$0")/.."

seed=42
seconds=10
smoke=""
mode=run
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) smoke="--smoke"; seconds=1 ;;
        --aa) mode=aa ;;
        --check) mode=check ;;
        --record) mode=record ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) sed -n '2,18p' "$0"; exit 2 ;;
    esac
    shift
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/yardstick"
workloads="flat_read tree_read tenant_storm registry_churn mote_scale"
out=benchmark/out
status=0

# One pass set of one workload; the binary's last line (the driver's JSON)
# is dropped, the `name value unit` lines above it are the report.
yardstick() {
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" $smoke | sed '$d'
}

# The recorded outcome of a full run on a recorded seed.
expected() {
    awk -v w="$1" -v s="$seed" '$1 == w && $2 == s { print $3 }' benchmark/expected.tsv
}

fnv_of() {
    sed -n 's/.*"result_fnv64": "\([0-9a-f]*\)".*/\1/p' "$out/$1.end_to_end.json"
}

case "$mode" in
check)
    for w in $workloads; do
        "$bin" --workload "$w" --seed "$seed" --check
    done
    ;;
aa)
    for set in a b; do
        for w in $workloads; do
            echo "== $w (set $set)"
            yardstick "$w" 0
            mkdir -p "$out/$set"
            mv "$out/$w.end_to_end.json" "$out/$set/"
        done
    done
    for w in $workloads; do
        echo "== $w: a vs b"
        "$bin" compare "$out/a/$w.end_to_end.json" "$out/b/$w.end_to_end.json" || status=1
    done
    ;;
run | record)
    for w in $workloads; do
        echo "== $w"
        yardstick "$w" 0
        yardstick "$w" 1
        if [ -z "$smoke" ] && [ "$mode" = run ]; then
            want=$(expected "$w")
            got=$(fnv_of "$w")
            if [ -z "$want" ]; then
                echo "# result_fnv64 $got (seed $seed is not recorded)"
            elif [ "$want" = "$got" ]; then
                echo "# result_fnv64 matches benchmark/expected.tsv"
            else
                echo "# result_fnv64 $got DIFFERS from the recorded $want: the modelled" \
                    "protocol changed; say so in the issue and re-record with --record"
                status=1
            fi
        fi
    done
    if [ "$mode" = record ]; then
        [ -z "$smoke" ] || { echo "--record needs a full run"; exit 2; }
        {
            grep -v -E "^[a-z_]+	$seed	" benchmark/expected.tsv || true
            for w in $workloads; do
                printf '%s\t%s\t%s\n' "$w" "$seed" "$(fnv_of "$w")"
            done
        } > "$out/expected.tsv"
        mv "$out/expected.tsv" benchmark/expected.tsv
        echo "recorded seed $seed in benchmark/expected.tsv"
    fi
    ;;
esac
exit $status
