#!/bin/sh
# Counted lines of the library crates: non-blank lines of `src/*.rs` that are
# not `//` comments (`///` and `//!` docs included), up to the file's
# top-level `#[cfg(test)]`. The runtime's `model_check.rs` (a test-only model
# suite) is excluded. Zero dependencies: POSIX sh, find and awk.
#
# Usage: scripts/size.sh [crate ...]   (default: tileqr-runtime tileqr-kernels)
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
[ $# -gt 0 ] || set -- tileqr-runtime tileqr-kernels
for crate in "$@"; do
    dir="$root/crates/$crate/src"
    [ -d "$dir" ] || { echo "size.sh: no such crate: $crate" >&2; exit 1; }
    find "$dir" -name '*.rs' ! -name model_check.rs -exec awk -v crate="$crate" '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        !counting || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { total++ }
        END { printf "%-16s %6d\n", crate, total }' {} +
done
