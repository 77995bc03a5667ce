#!/usr/bin/env bash
# The benchmark's one command: build the benchmark binary and the real
# serve_http and pack_city it drives (release, from source, offline), then
# run it. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload interactive_short --seed 0 --seconds 24 --trace 0
#
# Cargo is invoked only when a source file is newer than the last build:
# outside a git checkout the crates' build scripts watch a `.git/HEAD` that
# does not exist, so every `cargo build` would recompile three crates.
set -euo pipefail

target="${CARGO_TARGET_DIR:-benchmark/target}"
stamp="$target/release/.rnbench-built"
sources=(Cargo.toml crates vendor benchmark/Cargo.toml benchmark/src BENCHMARK.json)

if [ ! -f "$stamp" ] || [ -n "$(find "${sources[@]}" -type f -newer "$stamp" -print -quit)" ]; then
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml \
        -p rntrajrec-benchmark -p rntrajrec-serve -p rntrajrec-artifact \
        --bin rnbench --bin serve_http --bin pack_city >&2
    touch "$stamp"
fi
exec "$target/release/rnbench" "$@"
