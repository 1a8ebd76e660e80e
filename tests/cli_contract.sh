#!/usr/bin/env bash
# The contract of the `sffuse` console script: each subcommand's output is
# compared with its golden file by cmp, and each failure is checked for exit
# status 1, one stderr line and the files it leaves. Run it from the
# repository root with `sffuse` on PATH and a writable scratch directory:
#   RUNNER_TEMP=$(mktemp -d) bash tests/cli_contract.sh
# CI runs it against the installed package, and tests/test_workflow.py with
# a shim that runs `sffuse.cli.main` from src/.
set -eo pipefail
: "${RUNNER_TEMP:?RUNNER_TEMP must name a writable directory}"
sffuse --help > /dev/null
# The masked probe prints exact zeros, whatever the BLAS build; the
# --no-maam sums get no golden file, as their last digits may differ.
sffuse leakage --seed 0 --json > "$RUNNER_TEMP/leak.json"
cmp "$RUNNER_TEMP/leak.json" tests/data/golden_leakage.json
sffuse annotate --in tests/data/instances_12.jsonl --out "$RUNNER_TEMP/l.jsonl" --mock \
  --records "$RUNNER_TEMP/r.jsonl"
cmp "$RUNNER_TEMP/l.jsonl" tests/data/golden_labeled.jsonl
cmp "$RUNNER_TEMP/l.jsonl.stats.json" tests/data/golden_stats.json
cmp "$RUNNER_TEMP/r.jsonl" tests/data/golden_records.jsonl
sffuse validate --traces tests/data/traces_diagnostics.jsonl \
  --labels tests/data/labels_diagnostics.jsonl --out "$RUNNER_TEMP/v.jsonl"
cmp "$RUNNER_TEMP/v.jsonl" tests/data/golden_validate.jsonl
# CRLF line ends, and lines of whitespace only (" \t", U+3000), read as
# the plain files do.
sed 's/$/\r/' tests/data/traces_diagnostics.jsonl > "$RUNNER_TEMP/crlf.jsonl"
awk '{ print; print (NR % 2 ? " \t" : "\343\200\200") }' \
  tests/data/labels_diagnostics.jsonl > "$RUNNER_TEMP/blank.jsonl"
sffuse validate --traces "$RUNNER_TEMP/crlf.jsonl" \
  --labels "$RUNNER_TEMP/blank.jsonl" --out "$RUNNER_TEMP/vb.jsonl"
cmp "$RUNNER_TEMP/vb.jsonl" tests/data/golden_validate.jsonl
echo '{"pipeline": {"parallelism": 4}}' > "$RUNNER_TEMP/config.json"
sffuse annotate --in tests/data/instances_12.jsonl --out "$RUNNER_TEMP/p.jsonl" \
  --mock --config "$RUNNER_TEMP/config.json" --records "$RUNNER_TEMP/pr.jsonl"
cmp "$RUNNER_TEMP/p.jsonl" tests/data/golden_labeled.jsonl
cmp "$RUNNER_TEMP/p.jsonl.stats.json" tests/data/golden_stats.json
cmp "$RUNNER_TEMP/pr.jsonl" tests/data/golden_records.jsonl
sffuse mask --spec tests/data/layout_l6.json > "$RUNNER_TEMP/m.txt"
cmp "$RUNNER_TEMP/m.txt" tests/data/golden_mask_l6.txt
sffuse mask --spec tests/data/layout_l6.json --rle "$RUNNER_TEMP/m.rle"
cmp "$RUNNER_TEMP/m.rle" tests/data/golden_mask_l6.rle
sffuse mask --spec tests/data/layout_l6.json --out "$RUNNER_TEMP/m.out"
cmp "$RUNNER_TEMP/m.out" tests/data/golden_mask_l6.txt
# Row 3 is the grid's line 3 (from 0), cut to its 4 causal cells.
sffuse mask --spec tests/data/layout_l6.json --row 3 > "$RUNNER_TEMP/row3.txt"
sed -n 4p tests/data/golden_mask_l6.txt | cut -c1-4 | cmp - "$RUNNER_TEMP/row3.txt"
sffuse grpo-step --rollouts tests/data/rollouts_mixed.jsonl > "$RUNNER_TEMP/g.txt"
cmp "$RUNNER_TEMP/g.txt" tests/data/golden_grpo.txt
sffuse grpo-step --rollouts tests/data/rollouts_mixed.jsonl --json > "$RUNNER_TEMP/g.json"
cmp "$RUNNER_TEMP/g.json" tests/data/golden_grpo.json
sffuse attn-report --weights tests/data/weights_l10.jsonl \
  --spec tests/data/layout_l10.json > "$RUNNER_TEMP/a.txt"
cmp "$RUNNER_TEMP/a.txt" tests/data/golden_attn_report.txt
sffuse attn-report --weights tests/data/weights_l10.jsonl \
  --spec tests/data/layout_l10.json --json > "$RUNNER_TEMP/a.json"
cmp "$RUNNER_TEMP/a.json" tests/data/golden_attn_report.json
# A bound far out of range must be rejected before it is expanded.
echo '{"length": 4, "video_input": [[0, 1000000000000]]}' > "$RUNNER_TEMP/far.json"
code=0
timeout 20 sffuse mask --spec "$RUNNER_TEMP/far.json" || code=$?
test "$code" -eq 1
# A valid layout too long for a 1 GiB address space is one error line.
echo '{"length": 100000000}' > "$RUNNER_TEMP/long.json"
code=0
(ulimit -v 1048576 && OPENBLAS_NUM_THREADS=1 \
  sffuse mask --spec "$RUNNER_TEMP/long.json" --row 0) 2> "$RUNNER_TEMP/long.err" \
  || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/long.err")" -eq 1
grep -q '^error: ' "$RUNNER_TEMP/long.err"
# An absent --config file gives the operating system's message, on one line.
code=0
sffuse validate --traces tests/data/traces_perfect.jsonl \
  --labels tests/data/labels_perfect.jsonl --config "$RUNNER_TEMP/absent.json" \
  2> "$RUNNER_TEMP/absent.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/absent.err")" -eq 1
grep -q '^error: \[Errno 2\] ' "$RUNNER_TEMP/absent.err"
# A reward of 1e999 and a weight of true break the one number rule:
# each is one error line naming the file's line 1.
echo '{"rewards": [1e999, 0], "logp_new": [0, 0], "logp_old": [0, 0], "logp_ref": [0, 0]}' \
  > "$RUNNER_TEMP/inf.jsonl"
code=0
sffuse grpo-step --rollouts "$RUNNER_TEMP/inf.jsonl" 2> "$RUNNER_TEMP/inf.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/inf.err")" -eq 1
grep -qxF "error: $RUNNER_TEMP/inf.jsonl:1: rewards must hold finite numbers" \
  "$RUNNER_TEMP/inf.err"
# Two groups with one id are one error line, and nothing on stdout.
group='{"group_id": "g", "rewards": [1, 0], "logp_new": [0, 0], "logp_old": [0, 0], "logp_ref": [0, 0]}'
printf '%s\n%s\n' "$group" "$group" > "$RUNNER_TEMP/dup.jsonl"
code=0
sffuse grpo-step --rollouts "$RUNNER_TEMP/dup.jsonl" > "$RUNNER_TEMP/dup.out" \
  2> "$RUNNER_TEMP/dup.err" || code=$?
test "$code" -eq 1
test ! -s "$RUNNER_TEMP/dup.out"
test "$(wc -l < "$RUNNER_TEMP/dup.err")" -eq 1
grep -qxF "error: duplicate group ids: ['g']" "$RUNNER_TEMP/dup.err"
# Two instances with one id are one error line naming it, and no --out file.
instance='{"id": "dup", "question": "q", "gold_answer": "x"}'
printf '%s\n%s\n' "$instance" "$instance" > "$RUNNER_TEMP/dupi.jsonl"
code=0
sffuse annotate --in "$RUNNER_TEMP/dupi.jsonl" --out "$RUNNER_TEMP/dupi.out" --mock \
  2> "$RUNNER_TEMP/dupi.err" || code=$?
test "$code" -eq 1
test ! -e "$RUNNER_TEMP/dupi.out"
test "$(wc -l < "$RUNNER_TEMP/dupi.err")" -eq 1
grep -qxF "error: duplicate instance ids: ['dup']" "$RUNNER_TEMP/dupi.err"
echo '{"shape": [1, 2], "data": [0.5, true]}' > "$RUNNER_TEMP/true.jsonl"
code=0
sffuse attn-report --weights "$RUNNER_TEMP/true.jsonl" --spec tests/data/layout_l6.json \
  2> "$RUNNER_TEMP/true.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/true.err")" -eq 1
grep -qxF "error: $RUNNER_TEMP/true.jsonl:1: data must hold finite numbers" \
  "$RUNNER_TEMP/true.err"
# An integer of 5,000 digits is too long for Python to convert: invalid JSON.
python3 -c 'print("{\"rewards\": [1, " + "1" * 5000 + "], \"logp_new\": [0, 0], \"logp_old\": [0, 0], \"logp_ref\": [0, 0]}")' \
  > "$RUNNER_TEMP/digits.jsonl"
code=0
sffuse grpo-step --rollouts "$RUNNER_TEMP/digits.jsonl" 2> "$RUNNER_TEMP/digits.err" \
  || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/digits.err")" -eq 1
grep -q ':1: invalid JSON: ' "$RUNNER_TEMP/digits.err"
# A lone surrogate in a labeled row cannot be UTF-8 encoded: the old
# --out file is left as it was.
printf '%s\n' '{"id": "u1", "question": "What barks\ud800? solvable=A,AV", "gold_answer": "dog"}' \
  > "$RUNNER_TEMP/sur.jsonl"
echo old > "$RUNNER_TEMP/sur.out"
cp "$RUNNER_TEMP/sur.out" "$RUNNER_TEMP/sur.old"
code=0
sffuse annotate --in "$RUNNER_TEMP/sur.jsonl" --out "$RUNNER_TEMP/sur.out" --mock \
  2> "$RUNNER_TEMP/sur.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/sur.err")" -eq 1
grep -qF "$RUNNER_TEMP/sur.out: row 1: " "$RUNNER_TEMP/sur.err"
cmp "$RUNNER_TEMP/sur.out" "$RUNNER_TEMP/sur.old"
# An instance id with a lone surrogate fails, and its failure row cannot
# be encoded in the stats report: every output is encoded before the
# first is opened, so neither --out nor the report is replaced.
printf '%s\n' '{"id": "ok1", "question": "What? solvable=A,AV", "gold_answer": "dog"}' \
  '{"id": "bad\ud800", "question": "What? solvable=A,AV", "gold_answer": "dog"}' \
  > "$RUNNER_TEMP/sid.jsonl"
echo old > "$RUNNER_TEMP/sid.out"
echo old stats > "$RUNNER_TEMP/sid.out.stats.json"
cp "$RUNNER_TEMP/sid.out" "$RUNNER_TEMP/sid.old"
cp "$RUNNER_TEMP/sid.out.stats.json" "$RUNNER_TEMP/sid.stats.old"
code=0
sffuse annotate --in "$RUNNER_TEMP/sid.jsonl" --out "$RUNNER_TEMP/sid.out" --mock \
  2> "$RUNNER_TEMP/sid.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/sid.err")" -eq 1
grep -qF "error: $RUNNER_TEMP/sid.out.stats.json: row 1: " "$RUNNER_TEMP/sid.err"
cmp "$RUNNER_TEMP/sid.out" "$RUNNER_TEMP/sid.old"
cmp "$RUNNER_TEMP/sid.out.stats.json" "$RUNNER_TEMP/sid.stats.old"
# Every output is opened before any is written: an output that cannot be
# opened leaves the old --out as it was, and no stats file behind.
echo old > "$RUNNER_TEMP/rec.out"
cp "$RUNNER_TEMP/rec.out" "$RUNNER_TEMP/rec.old"
code=0
sffuse annotate --in tests/data/instances_12.jsonl --out "$RUNNER_TEMP/rec.out" --mock \
  --records "$RUNNER_TEMP/missing/r.jsonl" 2> "$RUNNER_TEMP/rec.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/rec.err")" -eq 1
grep -qxF "error: [Errno 2] No such file or directory: '$RUNNER_TEMP/missing/r.jsonl'" \
  "$RUNNER_TEMP/rec.err"
cmp "$RUNNER_TEMP/rec.out" "$RUNNER_TEMP/rec.old"
test ! -e "$RUNNER_TEMP/rec.out.stats.json"
echo old > "$RUNNER_TEMP/grid.txt"
cp "$RUNNER_TEMP/grid.txt" "$RUNNER_TEMP/grid.old"
code=0
sffuse mask --spec tests/data/layout_l6.json --out "$RUNNER_TEMP/grid.txt" \
  --rle "$RUNNER_TEMP/missing/r.rle" 2> "$RUNNER_TEMP/grid.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/grid.err")" -eq 1
grep -q '^error: ' "$RUNNER_TEMP/grid.err"
cmp "$RUNNER_TEMP/grid.txt" "$RUNNER_TEMP/grid.old"
# A run that fails prints nothing on stdout, not even the --row line.
code=0
sffuse mask --spec tests/data/layout_l6.json --row 2 --out "$RUNNER_TEMP/missing/x.txt" \
  > "$RUNNER_TEMP/row.out" 2> "$RUNNER_TEMP/row.err" || code=$?
test "$code" -eq 1
test ! -s "$RUNNER_TEMP/row.out"
test "$(wc -l < "$RUNNER_TEMP/row.err")" -eq 1
grep -q '^error: ' "$RUNNER_TEMP/row.err"
# A row out of range is one error line and nothing on stdout, and the old
# --out file is left as it was.
echo old > "$RUNNER_TEMP/range.txt"
cp "$RUNNER_TEMP/range.txt" "$RUNNER_TEMP/range.old"
code=0
sffuse mask --spec tests/data/layout_l6.json --row 6 --out "$RUNNER_TEMP/range.txt" \
  > "$RUNNER_TEMP/range.out" 2> "$RUNNER_TEMP/range.err" || code=$?
test "$code" -eq 1
test ! -s "$RUNNER_TEMP/range.out"
test "$(wc -l < "$RUNNER_TEMP/range.err")" -eq 1
grep -qxF "error: row 6 out of range [0, 6)" "$RUNNER_TEMP/range.err"
cmp "$RUNNER_TEMP/range.txt" "$RUNNER_TEMP/range.old"
# Two outputs naming one file are refused before either is written.
code=0
sffuse annotate --in tests/data/instances_12.jsonl --out "$RUNNER_TEMP/same.jsonl" \
  --report "$RUNNER_TEMP/./same.jsonl" --mock 2> "$RUNNER_TEMP/same.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/same.err")" -eq 1
grep -qF "are the same file" "$RUNNER_TEMP/same.err"
test ! -e "$RUNNER_TEMP/same.jsonl"
# A file cut short inside a string: Python's message ends in "at" already.
printf '{"rewards": [1, 0], "note": "abc' > "$RUNNER_TEMP/cut.jsonl"
code=0
sffuse grpo-step --rollouts "$RUNNER_TEMP/cut.jsonl" 2> "$RUNNER_TEMP/cut.err" || code=$?
test "$code" -eq 1
grep -qxF "error: $RUNNER_TEMP/cut.jsonl:1: invalid JSON: Unterminated string starting at column 29" \
  "$RUNNER_TEMP/cut.err"
# A timeout longer than a socket can wait is refused when the config is
# read, before any connection is tried.
echo '{"pipeline": {"endpoint": {"base_url": "http://127.0.0.1:9/chat", "timeout": 1e10, "retries": 0}, "embedder_endpoint": {"base_url": "http://127.0.0.1:9/embed"}}}' \
  > "$RUNNER_TEMP/wait.json"
code=0
sffuse annotate --in tests/data/instances_12.jsonl --out "$RUNNER_TEMP/wait.out" \
  --config "$RUNNER_TEMP/wait.json" 2> "$RUNNER_TEMP/wait.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/wait.err")" -eq 1
grep -qF "error: $RUNNER_TEMP/wait.json: config.pipeline.endpoint: timeout must be at most " \
  "$RUNNER_TEMP/wait.err"
test ! -e "$RUNNER_TEMP/wait.out"
# A negative weight where the summary rows meet the audio-reasoning columns.
python3 -c 'import json; print(json.dumps({"shape": [10, 10], "data": [
    -0.01 if i in (8, 9) and j in (6, 7) else (1 / (i + 1) if j <= i else 0.0)
    for i in range(10) for j in range(10)]}))' > "$RUNNER_TEMP/neg.jsonl"
code=0
sffuse attn-report --weights "$RUNNER_TEMP/neg.jsonl" --spec tests/data/layout_l10.json \
  2> "$RUNNER_TEMP/neg.err" || code=$?
test "$code" -eq 1
test "$(wc -l < "$RUNNER_TEMP/neg.err")" -eq 1
grep -qxF "error: layer[-1] weights hold a negative value" "$RUNNER_TEMP/neg.err"
