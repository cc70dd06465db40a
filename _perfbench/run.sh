#!/usr/bin/env bash
# Builds the perfbench binary and odrips-server from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash _perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Every build product, memo store and trace file goes under .bench_build/
# in the checkout; build logs go to stderr, the report to stdout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/odrips-server" || ! -f "$root/_perfbench/go.mod" ]]; then
	echo "run.sh: $root is not an odrips checkout (run from the repository root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the Go toolchain's caches, temporary files and config (telemetry
# counters included) inside the checkout, and never let it download.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off CGO_ENABLED=0

(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/odrips-server" ./cmd/odrips-server >&2
exec "$out/perfbench" -root "$root" -out "$out" -server "$out/odrips-server" "$@"
