#!/bin/sh
# Figure-output contracts, end to end, for one build directory:
#
#   tests/e2e/figures.sh BUILD_DIR
#
# 1. The goldens.  `flywheel_bench --all --csv` at a 2000-instruction
#    warmup and a 5000-instruction window prints every registered
#    figure, table and ablation and exports every grid row.  It runs
#    with --jobs 1 and with --jobs 8; the two runs must match, and
#    their stdout and CSV must equal tests/golden/all.txt and
#    tests/golden/all.csv byte for byte.  On a mismatch the script
#    prints `diff -u` and the one command that refreshes both files
#    after a deliberate change of results.
# 2. Every shipped spec under specs/ passes --validate-spec.
# 3. Every shipped spec reproduces its registered figure: --spec
#    specs/NAME.json prints what --figure NAME prints.
# 4. An ad-hoc grid's --json export is byte-identical for --jobs 1 and
#    --jobs 8.
#
# Exits non-zero on the first broken contract.  Registered as the
# tier-1 ctest e2e_figures.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
bench="$(cd "$1" && pwd)/flywheel_bench"
repo=$(cd "$(dirname "$0")/../.." && pwd)
golden="$repo/tests/golden"
work=$(mktemp -d "${TMPDIR:-/tmp}/fw_figures.XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work"

# 1. The goldens.
export FLYWHEEL_WARMUP_INSTRS=2000 FLYWHEEL_SIM_INSTRS=5000
for jobs in 1 8; do
    mkdir "jobs$jobs"
    "$bench" --all --jobs "$jobs" --csv "jobs$jobs/all.csv" \
        > "jobs$jobs/all.txt"
done
diff -u jobs1/all.txt jobs8/all.txt
diff -u jobs1/all.csv jobs8/all.csv
stale=0
for f in all.txt all.csv; do
    diff -u "$golden/$f" "jobs1/$f" || stale=1
done
if [ "$stale" -ne 0 ]; then
    echo "figures differ from $golden; after a deliberate change of" \
         "results, refresh both files with:" >&2
    echo "  FLYWHEEL_WARMUP_INSTRS=2000 FLYWHEEL_SIM_INSTRS=5000" \
         "$bench --all --csv $golden/all.csv > $golden/all.txt" >&2
    exit 1
fi

# 2. Validate shipped experiment specs.
for f in "$repo"/specs/*.json; do
    "$bench" --validate-spec "$f" || exit 1
done

# 3. Figure-from-spec reproduction: the declarative file alone must
#    reproduce the registered figure byte for byte.
export FLYWHEEL_SIM_INSTRS=20000 FLYWHEEL_WARMUP_INSTRS=5000
for f in "$repo"/specs/*.json; do
    name=$(basename "$f" .json)
    "$bench" --figure "$name" > "${name}_registry.txt"
    "$bench" --spec "$f" > "${name}_spec.txt"
    cmp "${name}_registry.txt" "${name}_spec.txt"
done

# 4. Parallel sweep determinism: an ad-hoc grid is a spec file; its
#    export must be byte-identical for any worker count.
cat > s.json <<'SPEC'
{"schema": "flywheel-experiment-v1", "name": "sweep_cli", "grids": [{"benchmarks": ["gcc"], "kinds": ["baseline", "flywheel"], "clocks": [{"fe": 0, "be": 0.5}, {"fe": 0.5, "be": 0.5}]}]}
SPEC
"$bench" --spec s.json --jobs 1 --json j1.json > /dev/null
"$bench" --spec s.json --jobs 8 --json j8.json > /dev/null
cmp j1.json j8.json

echo "figures: goldens, shipped specs and --jobs 1/8 exports identical"
