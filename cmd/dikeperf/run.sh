#!/usr/bin/env bash
# Builds dikeperf from the checkout it is run in, then runs it with the
# given arguments. Run it from the repository root:
#
#   bash cmd/dikeperf/run.sh --workload sim-closed --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root. --trace 1 needs the traced copy of the harness wiring, which is
# compiled only into a second binary built with -tags trace.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
here=$(cd "$(dirname "$0")" && pwd)

bin=dikeperf
tags=()
case " $* " in
*" --trace 1 "* | *" --trace=1 "*)
	bin=dikeperf-trace
	tags=(-tags trace)
	;;
esac

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false "${tags[@]}" -o "$out/$bin" .)
exec "$out/$bin" "$@"
