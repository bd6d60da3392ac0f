#!/bin/sh
# Size of the workspace crates, two numbers per crate, both taken over
# `src/*.rs` and `benches/*.rs` up to each file's top-level `#[cfg(test)]`;
# the runtime's `model_check.rs` (a test-only model suite) is excluded.
#
# * lines: non-blank lines that are not `//` comments (`///` and `//!` docs
#   included);
# * public items: lines declaring a `pub` fn, struct, enum, trait, type,
#   const, static, mod or use (`pub(crate)` and other `pub(…)` not counted).
#
# Zero dependencies: POSIX sh, find and awk.
#
# Usage: scripts/size.sh [crate ...]   (default: tileqr-runtime tileqr-kernels)
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
[ $# -gt 0 ] || set -- tileqr-runtime tileqr-kernels
for crate in "$@"; do
    dir="$root/crates/$crate"
    [ -d "$dir/src" ] || { echo "size.sh: no such crate: $crate" >&2; exit 1; }
    find "$dir" \( -path "$dir/src/*" -o -path "$dir/benches/*" \) -name '*.rs' ! -name model_check.rs -exec awk -v crate="$crate" '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        !counting || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { total++ }
        /^[[:space:]]*pub[[:space:]]+((unsafe|async)[[:space:]]+)?(fn|struct|enum|trait|type|const|static|mod|use)[[:space:]]/ { items++ }
        END { printf "%-16s %6d lines %5d public items\n", crate, total, items }' {} +
done
