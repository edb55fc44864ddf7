#!/usr/bin/env bash
# run.sh builds the host-time benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload paper_path --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that directory: the Go build and
# module caches, the binary, and the Chrome trace files of traced runs.
# Without the simulator's module at the repository root, the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# The commit is part of the host fingerprint every result carries. A
# checkout without git history gets a hash of the Go sources instead.
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
	commit="tree-$(cd "$root" && find . -path ./.bench_build -prune -o -name '*.go' -print0 |
		LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-16)" || commit=unknown
fi

exec "$out/perfbench" -commit "$commit" -out "$out/traces" "$@"
