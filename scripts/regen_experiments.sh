#!/bin/sh
# regen_experiments.sh — regenerate every recorded artifact that
# EXPERIMENTS.md quotes, so the prose is script-generated, not hand-typed:
#
#   * experiments_output.txt       — full run of the Section VI harness
#                                    (`-exp all`), which also rewrites
#                                    every BENCH_*.json artifact of the
#                                    internal/bench table
#   * BENCH_campaign.json          — aggregate of the reliability sweep
#   * EXPERIMENTS.md               — the block between the
#     `<!-- campaign:generated ... -->` markers is replaced with the
#     sweep's aggregate table (byte-identical at any -workers value)
#
# Run from the repository root: ./scripts/regen_experiments.sh
# Takes a few minutes: the harness sweeps Figure 6 and the campaign runs
# 9 cells x 200 trials of real float64 reductions.
set -eu

cd "$(dirname "$0")/.."

# The reliability sweep EXPERIMENTS.md reports. 3 sizes x 3 error rates,
# 200 trials per cell; the seed pins every trial (DESIGN.md §8).
SWEEP_ARGS="-n 96,126,158 -nb 16 -lambda 0.5,1,2 -trials 200 -seed 1 -workers ${WORKERS:-8}"

echo "== experiments harness (experiments_output.txt)" >&2
go run ./cmd/experiments -exp all > experiments_output.txt

echo "== reliability sweep (BENCH_campaign.json)" >&2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/campaign $SWEEP_ARGS \
    -out "$tmp/campaign.jsonl" -bench BENCH_campaign.json > "$tmp/table.txt"

echo "== splicing the campaign table into EXPERIMENTS.md" >&2
{
    echo "<!-- campaign:generated by scripts/regen_experiments.sh — do not edit by hand -->"
    echo '```'
    echo "\$ go run ./cmd/campaign $SWEEP_ARGS -bench BENCH_campaign.json"
    # The REPRO lines (one per non-clean-fail trial) are for replaying a
    # failure, not for reading; keep the document to the aggregate table.
    grep -v '^REPRO ' "$tmp/table.txt"
    repro=$(grep -c '^REPRO ' "$tmp/table.txt" || true)
    if [ "$repro" -gt 0 ]; then
        echo "… $repro REPRO replay lines elided (rerun the command to see them)"
    fi
    echo '```'
    echo "<!-- campaign:end -->"
} > "$tmp/block.md"

awk -v block="$tmp/block.md" '
    /<!-- campaign:generated/ { skip = 1; while ((getline line < block) > 0) print line; close(block) }
    /<!-- campaign:end -->/   { skip = 0; next }
    !skip { print }
' EXPERIMENTS.md > "$tmp/EXPERIMENTS.md"
mv "$tmp/EXPERIMENTS.md" EXPERIMENTS.md

echo "regenerated: experiments_output.txt BENCH_*.json EXPERIMENTS.md" >&2
