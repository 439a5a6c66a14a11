#!/bin/bash
# Final deliverable runs: the full test suite tee'd to test_output.txt,
# then every bench (run_benches.sh) with its outputs concatenated into
# bench_output.txt.
cd "$(dirname "$0")"
ctest --test-dir build 2>&1 | tee test_output.txt
bash run_benches.sh
: > bench_output.txt
for b in build/bench/*; do
    { [ -f "$b" ] && [ -x "$b" ]; } || continue
    cat "results/$(basename "$b").txt" >> bench_output.txt
done
