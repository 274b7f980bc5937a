#!/usr/bin/env bash
# Run every Fuzz* target in the module for a fixed time each
# (FUZZTIME, default 10s). Targets are found by scanning the module's
# _test.go files, so a new fuzz target joins the run without an edit
# here. Exits non-zero on the first target that finds a failure; the
# failing input is left under the package's testdata/fuzz directory.
set -euo pipefail

GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-10s}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

count=0
while IFS=: read -r file decl; do
    name="$(sed -E 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/' <<<"$decl")"
    pkg="./$(dirname "$file")"
    echo "fuzz-smoke: $pkg $name for $FUZZTIME"
    "$GO" test -run '^$' -fuzz "^${name}\$" -fuzztime "$FUZZTIME" "$pkg"
    count=$((count + 1))
done < <(grep -rE --include='*_test.go' --exclude-dir=testdata --exclude-dir=perfbench '^func Fuzz[A-Za-z0-9_]*\(' . | sed 's|^\./||' | sort)

if [[ $count -eq 0 ]]; then
    echo "fuzz-smoke: no fuzz targets found" >&2
    exit 1
fi
echo "fuzz-smoke: $count targets passed"
