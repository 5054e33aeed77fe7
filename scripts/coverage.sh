#!/usr/bin/env bash
# coverage.sh — per-package coverage report plus a gate on the serving
# layer and its contract: internal/server, internal/tenant, internal/replay,
# internal/ring, internal/obs, internal/plankey, api and client together must
# stay at or above THRESHOLD percent statement coverage. One `go test -race` run doubles as
# the race gate and produces both the per-package report and the profile
# the coverage gate is computed from, so CI never executes the suite twice.
# Used by `make cover` and the CI test step, so local runs match the
# workflow exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${COVERAGE_THRESHOLD:-78}"
PROFILE="${COVERAGE_PROFILE:-coverage.out}"

echo "== per-package coverage (with -race) =="
go test -race -coverprofile="$PROFILE" ./...

echo
echo "== gated packages (>= ${THRESHOLD}%): internal/server + internal/tenant + internal/replay + internal/ring + internal/obs + internal/plankey + api + client =="
gated="$(mktemp)"
trap 'rm -f "$gated"' EXIT
head -n 1 "$PROFILE" > "$gated" # the "mode:" line
grep -E '^chronos/(internal/(server|tenant|replay|ring|obs|plankey)|api|client)/' "$PROFILE" >> "$gated"
total="$(go tool cover -func="$gated" | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
echo "combined statement coverage: ${total}%"
awk -v got="$total" -v want="$THRESHOLD" 'BEGIN {
    if (got + 0 < want + 0) {
        printf "FAIL: coverage %.1f%% is below the %.1f%% gate\n", got, want
        exit 1
    }
    printf "OK: coverage %.1f%% meets the %.1f%% gate\n", got, want
}'
