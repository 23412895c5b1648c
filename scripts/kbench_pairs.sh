#!/usr/bin/env bash
# Paired kbench comparison of two builds on one host.
#
#   scripts/kbench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SECONDS FIRST_SEED PAIRS
#
# Runs PAIRS pairs of `kbench --workload WORKLOAD --seconds SECONDS
# --trace 0`, one run of each binary per pair, from a temporary directory
# (kbench writes its reports under the working directory's kbench/out).
# Pair i uses seed FIRST_SEED+i, and the order of the two runs flips from
# one pair to the next, so neither binary always runs first on a host
# that drifts between fast and slow stretches.
#
# Exits 1 as soon as a run's last line does not report "correct": true
# and "failed": 0. Otherwise prints, for each end-to-end metric of
# BENCHMARK.json (its direction and bound are read from there):
#
# - each side's median and quartiles (linear interpolation);
# - the change's median as a signed percentage of the parent's median
#   (negative: the change's median is lower);
# - how many pairs the change won (strictly better than the parent run
#   of the same pair);
# - gain: yes when the change won at least 9 pairs in 10 and its median
#   beats the parent's by more than the parent's quartile spread;
# - no-regression: yes when the change's median is not worse than the
#   parent's by more than the metric's bound (a fraction of the
#   parent's median), no when it is; unresolved when either side's
#   quartile spread is wider than the bound, unless every change run
#   beats every parent run.
#
# Last, it compares the two runs of each pair on their exact_counts line
# (the second-to-last line of kbench's output), which repeats at one seed
# whatever the run length, and prints one summary: "exact counts:
# identical in P/P pairs", or how many pairs differ and, for the first of
# them, its seed and the keys whose values differ.

set -euo pipefail

if [ "$#" -ne 6 ]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
parent_bin=$(realpath "$1")
change_bin=$(realpath "$2")
workload=$3
seconds=$4
first_seed=$5
pairs=$6
for bin in "$parent_bin" "$change_bin"; do
    [ -x "$bin" ] || { echo "kbench_pairs: $bin is not executable" >&2; exit 2; }
done
if ! [[ "$first_seed" =~ ^[0-9]+$ && "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "kbench_pairs: FIRST_SEED must be a whole number and PAIRS at least 1" >&2
    exit 2
fi

# name better bound, one end-to-end metric a line.
metrics=$(awk -F'"' '
    /"end_to_end"/ { inside = 1; next }
    inside && /^[[:space:]]*\]/ { exit }
    inside && $2 == "name" { name = $4 }
    inside && $2 == "better" { better = $4 }
    inside && $2 == "bound" {
        bound = $3
        gsub(/[:,[:space:]]/, "", bound)
        print name, better, bound
    }
' "$repo/BENCHMARK.json")
[ -n "$metrics" ] || { echo "kbench_pairs: no end-to-end metrics in BENCHMARK.json" >&2; exit 2; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/values" "$work/counts"

# run SIDE BIN SEED: one kbench run; appends each metric's value (or
# "nan" when the run does not report it) to values/<metric>.<side>, and
# writes the run's exact_counts line to counts/<seed>.<side>.
run() {
    local side=$1 bin=$2 seed=$3 tail2 last line=""
    tail2=$(cd "$work" && env -u CARGO_MANIFEST_DIR "$bin" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 2) || true
    last=$(tail -n 1 <<<"$tail2")
    head -n 1 <<<"$tail2" >"$work/counts/$seed.$side"
    if ! grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<<"$last"; then
        echo "kbench_pairs: $side run at seed $seed failed: $last" >&2
        exit 1
    fi
    while read -r name _ _; do
        local value
        value=$(grep -o "\"$name\": {\"value\": [^,}]*" <<<"$last" | sed 's/.*: //')
        echo "${value:-nan}" >>"$work/values/$name.$side"
        line+=" $name=${value:-nan}"
    done <<<"$metrics"
    echo "seed $seed $side:$line"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$parent_bin" "$seed"
        run change "$change_bin" "$seed"
    else
        run change "$change_bin" "$seed"
        run parent "$parent_bin" "$seed"
    fi
done

echo
printf '%-14s %-6s %-5s %-32s %-32s %-8s %-7s %-5s %s\n' \
    metric better bound "parent median [q1, q3]" "change median [q1, q3]" change wins gain no-regression
while read -r name better bound; do
    paste "$work/values/$name.parent" "$work/values/$name.change" | awk \
        -v name="$name" -v better="$better" -v bound="$bound" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Quantile q of the sorted a[1..n], interpolating between ranks.
        function quantile(a, n, q,    h, lo) {
            h = (n - 1) * q + 1
            lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        # How much better x is than y in the metric direction.
        function gain(x, y) { return better == "lower" ? y - x : x - y }
        $1 == "nan" || $2 == "nan" { missing = 1 }
        { n++; p[n] = $1 + 0; c[n] = $2 + 0; if (gain($2 + 0, $1 + 0) > 0) wins++ }
        END {
            if (missing) {
                printf "%-14s %-6s %-5s not reported by every run\n", name, better, bound
                exit
            }
            sort(p, n); sort(c, n)
            pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
            spread = quantile(p, n, 0.75) - quantile(p, n, 0.25)
            won = wins + 0 >= 0.9 * n && gain(cm, pm) > spread
            limit = bound * (pm < 0 ? -pm : pm)
            held = gain(cm, pm) >= -limit ? "yes" : "no"
            wide = spread > limit || quantile(c, n, 0.75) - quantile(c, n, 0.25) > limit
            if (wide && !(better == "lower" ? c[n] < p[1] : c[1] > p[n])) held = "unresolved"
            printf "%-14s %-6s %-5s %-32s %-32s %-8s %-7s %-5s %s\n", name, better, bound,
                sprintf("%.6g [%.6g, %.6g]", pm, quantile(p, n, 0.25), quantile(p, n, 0.75)),
                sprintf("%.6g [%.6g, %.6g]", cm, quantile(c, n, 0.25), quantile(c, n, 0.75)),
                pm == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (cm - pm) / (pm < 0 ? -pm : pm)),
                sprintf("%d/%d", wins, n), won ? "yes" : "no", held
        }'
done <<<"$metrics"

# The keys of two exact_counts lines whose values differ (or that only
# one line has), space-separated.
differing_keys() {
    { diff <(grep -o '"[^"]*": [^,}]*' "$1" | sort) <(grep -o '"[^"]*": [^,}]*' "$2" | sort) || true; } |
        sed -n 's/^[<>] "\([^"]*\)".*/\1/p' | sort -u | paste -sd ' ' -
}

echo
differ=0
first=""
for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ! cmp -s "$work/counts/$seed.parent" "$work/counts/$seed.change"; then
        differ=$((differ + 1))
        [ -n "$first" ] ||
            first="seed $seed: $(differing_keys "$work/counts/$seed.parent" "$work/counts/$seed.change")"
    fi
done
if ((differ == 0)); then
    echo "exact counts: identical in $pairs/$pairs pairs"
else
    echo "exact counts: differ in $differ/$pairs pairs; first at $first"
fi
