#!/bin/sh
# Checkpoint-store contracts, end to end, for one build directory:
#
#   tests/e2e/checkpoint_store.sh BUILD_DIR
#
# 1. fig12 printed through a cold store, through the same store warm
#    and with no store is byte-identical: restoring a post-warmup
#    snapshot is bit-identical to simulating the warmup.
# 2. --dump-checkpoint decodes one file of that store and prints its
#    section table as JSON; the output must parse, carry the current
#    format version, list at least one section, store no section in
#    more bytes than it holds, and account for every byte of the file:
#    the header (magic, version, hash, key, count) plus each section's
#    name, flags, sizes and stored payload.
#
# Exits non-zero on the first broken contract.  Registered as a
# tier-1 ctest; CI times the same cold and warm runs for its speed
# bound.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
bench="$(cd "$1" && pwd)/flywheel_bench"
work=$(mktemp -d "${TMPDIR:-/tmp}/fw_ckpt_store.XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work"

export FLYWHEEL_SIM_INSTRS=20000 FLYWHEEL_WARMUP_INSTRS=80000
"$bench" --figure fig12 --checkpoint-dir ckpt_store > fig12_cold.txt
"$bench" --figure fig12 --checkpoint-dir ckpt_store > fig12_warm.txt
"$bench" --figure fig12 > fig12_off.txt
cmp fig12_cold.txt fig12_warm.txt
cmp fig12_cold.txt fig12_off.txt

f=$(ls ckpt_store/ckpt-*.fws | head -n 1)
"$bench" --dump-checkpoint "$f" > ckpt_dump.json
CKPT_FILE="$f" python3 - <<'PY'
import json, os
with open("ckpt_dump.json") as f:
    doc = json.load(f)
assert doc["version"] == 4, doc["version"]
assert len(doc["sections"]) >= 1, doc
parts = 18 + 4 + 8 + 4 + len(doc["key"].encode()) + 4
for s in doc["sections"]:
    assert s["stored"] <= s["bytes"], s
    assert s["compressed"] == (s["stored"] < s["bytes"]), s
    parts += 4 + len(s["name"].encode()) + 1 + 8 + 8 + s["stored"]
size = os.path.getsize(os.environ["CKPT_FILE"])
assert parts == doc["fileBytes"] == size, (parts, doc["fileBytes"], size)
print(len(doc["sections"]), "sections in", doc["hash"], size, "bytes")
PY
echo "checkpoint store: cold, warm and storeless fig12 identical"
