#!/bin/sh
# check.sh — the repository's full verification gate: build, vet,
# formatting, and the test suite. CI runs exactly this script, so a
# clean local run means a clean CI run.
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go test ./..."
go test ./...

# perfbench is its own module (the repository's benchmark) and imports
# the sim facade, so the module-wide commands above never compile it.
echo "==> perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "OK"
