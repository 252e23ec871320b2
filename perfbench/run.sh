#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout into .bench_build
# and runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload reduce-ckt1 --seed 7 --seconds 20 --trace 0
#
# The Go build cache lives in .bench_build too, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The commit stamp: the git revision, or a digest of the Go sources when the
# checkout is not a git repository.
if ! rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	rev=src-$(cd "$root" && find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
fi
(cd "$root/perfbench" && go build -ldflags "-X main.commit=$rev" -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
