#!/usr/bin/env bash
# The benchmark's one command. Builds the standalone benchmark package
# (release, offline) and runs it with the arguments given:
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --quick              the same as a smoke test (1 s boxes)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; the result object is the last line
#   benchmark/run.sh compare A.json B.json
#
# The build lands in $CARGO_TARGET_DIR when set, else in the repo's own
# target/ so the two share a cache. Cargo's chatter goes to stderr; a
# failed build (for one, a tree without crates/) exits non-zero before
# anything is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/sympl-benchmark" "$@"
