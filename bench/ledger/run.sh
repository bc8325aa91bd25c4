#!/usr/bin/env bash
# Builds the ledger from source into .bench_build/ at the root of the checkout
# and runs it with the arguments given. This is the command BENCHMARK.json
# names: the build cache, the binary, every scratch file and the traces stay
# inside the checkout (-out), and nothing is left running. The driver's
# "--trace 0|1" becomes the program's boolean -trace.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "run.sh: no go.mod in $root: the ledger builds only inside the repository it measures" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gotmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# In its default "local" mode the go command starts a telemetry sidecar that
# outlives it; with the mode file saying "off" it starts no process at all.
echo off >"$build/config/go/telemetry/mode"
XDG_CONFIG_HOME="$build/config" go build -o "$build/bin/ledger" ./bench/ledger
args=(-out "$build/ledger")
while (($#)); do
	case "$1" in
	--trace | -trace)
		case "${2-}" in
		0) args+=(-trace=false) ;;
		1) args+=(-trace=true) ;;
		*) echo "run.sh: --trace wants 0 or 1" >&2 && exit 2 ;;
		esac
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$build/bin/ledger" "${args[@]}"
