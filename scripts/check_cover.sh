#!/bin/sh
# check_cover.sh <floors-file>
#
# Runs `go test -cover ./...` and fails if any test fails or any package's
# statement coverage falls below its committed floor. Packages without a floor
# entry are reported but do not fail the check; add a floor once the package
# has tests.
set -eu

floors=${1:-coverage_floors.txt}
go=${GO:-go}

out=$(mktemp)
rcfile=$(mktemp)
trap 'rm -f "$out" "$rcfile"' EXIT

# The pipeline's status is tee's, so go test's own exit status travels
# through a file.
{
    rc=0
    "$go" test -cover ./... 2>&1 || rc=$?
    echo "$rc" >"$rcfile"
} | tee "$out"
testrc=$(cat "$rcfile")

floorrc=0
awk -v floors="$floors" '
BEGIN {
    while ((getline line < floors) > 0) {
        if (line ~ /^[ \t]*(#|$)/) continue
        split(line, f, /[ \t]+/)
        floor[f[1]] = f[2] + 0
        seen[f[1]] = 0
    }
}
$1 == "ok" && /coverage:/ {
    pkg = $2
    for (i = 1; i <= NF; i++) {
        if ($i == "coverage:") { pct = $(i + 1); break }
    }
    if (pct ~ /^\[/) next  # "coverage: [no statements]"
    sub(/%$/, "", pct)
    if (pkg in floor) {
        seen[pkg] = 1
        if (pct + 0 < floor[pkg]) {
            printf "FAIL cover: %s at %s%% is below floor %d%%\n", pkg, pct, floor[pkg]
            bad = 1
        }
    } else {
        printf "note: %s at %s%% has no coverage floor\n", pkg, pct
    }
}
END {
    for (pkg in seen) {
        if (!seen[pkg]) {
            printf "FAIL cover: no coverage reported for %s (floor %d%%)\n", pkg, floor[pkg]
            bad = 1
        }
    }
    exit bad
}' "$out" || floorrc=$?

if [ "$testrc" -ne 0 ]; then
    echo "FAIL cover: go test exited with status $testrc"
    exit 1
fi
exit "$floorrc"
