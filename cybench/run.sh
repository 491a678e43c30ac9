#!/usr/bin/env bash
# Builds cybench from source (offline, release) and runs it with the
# arguments given. Run from the root of the checkout:
#
#   cybench/run.sh --workload point_read --seed 1 --seconds 10 --trace 0
#   cybench/run.sh [--seed N]          every workload, untraced then traced
#   cybench/run.sh --smoke             the self-test (< 30 s)
#   cybench/run.sh compare A.json B.json
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# The driver names the build directory; on its own the package keeps one
# beside its sources.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --offline --release --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

if [ "${1:-}" = compare ]; then
    exec "$target/release/cybench" "$@"
fi
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/cybench" --git-commit "$commit" --out "$here/out" "$@"
