#!/usr/bin/env bash
# Build the benchmark from source, then run it from the repository root:
#   bash perfbench/run.sh --workload build|edit|serve --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -u
cd "$(dirname "$0")/.." || exit 2
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
if ! dune build --root . ./perfbench/main.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/main.exe "$@"
