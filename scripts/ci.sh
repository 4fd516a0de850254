#!/bin/sh
# CI entry point: formatting and module consistency, vet, build, the full
# suite under the race detector (shuffled, cache-busted), the short-mode
# chaos/degradation suites, and the benchmark regression gate. Mirrors
# `make ci`; the heavy stage runs the Makefile's targets.
#
# Usage: ci.sh [stage]
#   fast   consistency gates + build + plain test suite (quick signal)
#   heavy  race suite, chaos suites, fuzz smoke, benchmark gate
#   all    both (default; what `make ci` runs)
#
# The stages exist so the GitHub workflow can fan them out as separate
# jobs: `fast` fails in a couple of minutes on formatting/vet/test
# breakage while `heavy` grinds through the race and chaos suites.
set -eu
cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
	fast|heavy|all) ;;
	*) echo "usage: $0 [fast|heavy|all]" >&2; exit 2 ;;
esac

run_fast() {
	echo "== gofmt"
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo "== go mod tidy -diff"
	# The module files must already be tidy; -diff fails (with the patch)
	# instead of rewriting them.
	go mod tidy -diff

	echo "== go vet"
	GOFLAGS=-mod=readonly go vet ./...

	echo "== go build"
	GOFLAGS=-mod=readonly go build ./...

	echo "== go test"
	go test -count=1 ./...
}

run_heavy() {
	# The test patterns and flags live in the Makefile, one place: the
	# shuffled race suite, every chaos suite, fuzz smoke, and the
	# benchmark gate. See each target's comment there.
	for target in race chaos chaos-workers chaos-store chaos-resume chaos-overload \
		chaos-guard chaos-sched chaos-integrity fuzz-smoke bench-check; do
		echo "== make $target"
		make "$target"
	done
}

case "$stage" in
	fast) run_fast ;;
	heavy) run_heavy ;;
	all) run_fast; run_heavy ;;
esac

echo "CI OK ($stage)"
