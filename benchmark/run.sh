#!/usr/bin/env bash
# Builds the benchmark once and runs it from the repository root; every
# argument goes to the program (see main.go, or README.md beside this file).
# BENCHMARK.json's command is this script.
#
# The Go build cache, the binary and everything else the build writes stay in
# .bench_build/ at the repository root, so a run reads and writes nothing
# outside its checkout. nproc, GOMAXPROCS and the Go version are recorded by
# the program itself; the commit is passed in from here because the program
# cannot ask git.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: $root holds no go.mod: the benchmark builds against the madgo module around it" >&2
	exit 3
fi

mkdir -p "$build"
(
	cd "$here"
	env GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
		XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
		go build -o "$build/madbench" .
)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/madbench" -commit "$commit" "$@"
