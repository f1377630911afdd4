#!/usr/bin/env bash
#
# Report the library functions no shipped program runs.
#
# Configures a separate build (build-deadcode/) with every function in
# its own section (-ffunction-sections), no optimisation or inlining
# (so each function the sources call keeps an out-of-line body), and
# a section-collecting link (-Wl,--gc-sections); the unit tests are
# not built. It then prints each aw:: function that libaw.a defines
# but that no linked executable (tools, bench harnesses, examples)
# keeps. A function no executable keeps is either dead or reached
# only from tests.
#
# The report is informational: the script exits 0 whatever it lists.
# Header-only functions that nothing calls are never emitted at all,
# so they do not show up here.
#
# Usage:
#   scripts/dead_code.sh
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$ROOT/build-deadcode"

cmake -B "$BUILD_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
    -DAW_BUILD_TESTS=OFF \
    >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" >/dev/null

# Demangled names of the aw:: functions (text symbols, weak included)
# an object file or executable defines. Lambda bodies, and std::
# templates instantiated on aw:: types (demangled with their aw::
# return type first), go with the aw:: function that uses them.
functions() {
    nm -C --defined-only "$1" 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
        grep '^aw::' | grep -v '{lambda' | grep -Ev '^[^(]* std::' |
        sort -u
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

functions "$BUILD_DIR/libaw.a" >"$tmp/defined"
: >"$tmp/kept"
for exe in "$BUILD_DIR"/*; do
    [ -f "$exe" ] && [ -x "$exe" ] || continue
    functions "$exe" >>"$tmp/kept"
done
sort -u -o "$tmp/kept" "$tmp/kept"

comm -23 "$tmp/defined" "$tmp/kept" >"$tmp/dead"
echo "aw:: functions in libaw.a that no executable keeps:" \
     "$(wc -l <"$tmp/dead")"
cat "$tmp/dead"
exit 0
