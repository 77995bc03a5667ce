#!/usr/bin/env bash
# Smoke test, under a minute: all four workloads, both passes, 3-second
# windows; then check the result file against BENCHMARK.json (every declared
# metric present with its unit, nothing undeclared, every workload correct
# and valid, no gain claimed). Run from the root of a checkout.
set -euo pipefail
bash benchmark/run.sh --all --seconds 3
bash benchmark/run.sh --check-result benchmark/out/result.json
