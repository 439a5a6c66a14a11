#!/bin/bash
# Regenerate every paper table/figure into results/ (one file per bench).
cd "$(dirname "$0")"
mkdir -p results
: > results/campaign.log
for b in build/bench/*; do
    # Regular executables only: build/bench/CMakeFiles is a directory,
    # and directories pass [ -x ].
    { [ -f "$b" ] && [ -x "$b" ]; } || continue
    name=$(basename "$b")
    echo "[$(date +%H:%M:%S)] $name" >> results/campaign.log
    if [ "$name" = micro_primitives ]; then
        "$b" --benchmark_min_time=0.2 > "results/$name.txt" 2>&1
    else
        "$b" > "results/$name.txt" 2>&1
    fi
done
echo "[$(date +%H:%M:%S)] CAMPAIGN DONE" >> results/campaign.log
