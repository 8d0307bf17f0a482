#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload route.synth-100k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout: the Go
# build cache, the benchmark binary and the span traces of traced runs.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root; the router sources are not here" >&2
  exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

exec "$out/perfbench" -commit "$commit" -traces "$out/traces" "$@"
