#!/bin/sh
# The single entry point: builds the benchmark, runs one set (three
# interleaved repetitions of every workload, then one traced run of each) and
# prints every metric by name with its unit. Results go to benchmark/out/.
#
#   benchmark/run.sh                     # one full set, seed 1, ~8 min
#   benchmark/run.sh --seed 7            # another seed
#   benchmark/run.sh --smoke             # 512-bit keys, N/100, one repetition
#
# Other subcommands run through cargo directly:
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare a.json b.json
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- repeat --seed 1
set -eu
cd "$(dirname "$0")"
exec cargo run --release --offline --quiet --manifest-path Cargo.toml -- set "$@"
