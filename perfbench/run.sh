#!/bin/sh
# run.sh builds the benchmark from source and runs it with the given
# arguments: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Run it from the repository root. The build cache, the binary and the
# traced run's Chrome trace stay under .bench_build/ in the current
# directory; without the repository's sources the build fails and the
# script exits non-zero without printing a result.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
