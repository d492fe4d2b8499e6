#!/usr/bin/env bash
# Regenerates results/full_run.txt, the archived output of
# `ckpt-experiments -run all` at its default flags, or checks that the
# archive still matches what the code prints. Run from the repository
# root:
#
#	bash scripts/regen-results.sh          # rewrite the archive
#	bash scripts/regen-results.sh -check   # exit 1 if the archive is stale
#
# Lines beginning with '#' carry wall-clock timings, so the check
# ignores them; every other line must match byte for byte.
set -euo pipefail

case "${1:-}" in
"" | -check) ;;
*)
	echo "usage: $0 [-check]" >&2
	exit 2
	;;
esac

archive=results/full_run.txt
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go run ./cmd/ckpt-experiments -run all >"$out"

if [ "${1:-}" != -check ]; then
	cp "$out" "$archive"
elif ! diff -u <(grep -v '^#' "$archive") <(grep -v '^#' "$out"); then
	echo "regen-results: $archive differs from ckpt-experiments -run all; rerun bash scripts/regen-results.sh" >&2
	exit 1
fi
