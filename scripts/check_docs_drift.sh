#!/usr/bin/env bash
# Docs-drift guard: every flag cmd/neurocardd defines must be documented in
# README.md (and, informationally, anywhere flags are tabulated). The daemon
# is the system's public surface, so a flag that exists only in --help is a
# doc bug. Run from the repo root; CI runs it in the lint job.
set -euo pipefail
cd "$(dirname "$0")/.."

main=cmd/neurocardd/main.go
readme=README.md

# Flag names as the daemon registers them: flag.String("name", ...) etc.
flags=$(grep -oE 'flag\.(String|Int|Bool|Duration|Float64)\("[a-z0-9-]+"' "$main" |
  sed -E 's/.*\("([a-z0-9-]+)"/\1/' | sort -u)

if [ -z "$flags" ]; then
  echo "check_docs_drift: no flags parsed from $main — extraction regex drifted" >&2
  exit 1
fi

missing=0
for f in $flags; do
  # Documented means the literal `-flag` appears in README (table cell,
  # backticks, or prose). Word-boundary match so -fuse-queue doesn't
  # satisfy -fuse.
  if ! grep -qE -- "-$f([^a-z0-9-]|$)" "$readme"; then
    echo "undocumented daemon flag: -$f (add it to $readme)" >&2
    missing=1
  fi
done

count=$(echo "$flags" | wc -l)
if [ "$missing" -ne 0 ]; then
  echo "check_docs_drift: FAIL — $readme is missing daemon flags (of $count total)" >&2
  exit 1
fi
echo "check_docs_drift: OK — all $count cmd/neurocardd flags documented in $readme"
