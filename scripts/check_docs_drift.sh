#!/usr/bin/env bash
# Docs-drift guard: every flag cmd/neurocardd defines must be documented in
# README.md (and, informationally, anywhere flags are tabulated), and the
# HTTP routes internal/server/server.go registers must equal the route list
# in the cmd/neurocardd/main.go header. The daemon is the system's public
# surface, so a flag that exists only in --help, or a route that exists only
# in the mux, is a doc bug. Run from the repo root; CI runs it in the lint
# job.
set -euo pipefail
cd "$(dirname "$0")/.."

main=cmd/neurocardd/main.go
readme=README.md
mux=internal/server/server.go

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

# Routes as the mux registers them — HandleFunc("METHOD /path", ...) — and
# as the daemon header lists them — "//<TAB>METHOD /path   description".
served=$(grep -oE 'HandleFunc\("[A-Z]+ /[^"]*"' "$mux" |
  sed -E 's/HandleFunc\("([A-Z]+) ([^"]*)"/\1 \2/' | sort -u)
listed=$(grep -E $'^//\t(GET|POST|PUT|PATCH|DELETE|HEAD) +/' "$main" |
  sed -E $'s#^//\t([A-Z]+) +(/[^ ]*).*#\\1 \\2#' | sort -u)
if [ -z "$served" ] || [ -z "$listed" ]; then
  echo "check_docs_drift: no routes parsed from $mux or $main — extraction regex drifted" >&2
  exit 1
fi
while read -r route; do
  echo "route served by $mux but not listed in the $main header: $route" >&2
  missing=1
done < <(comm -23 <(echo "$served") <(echo "$listed"))
while read -r route; do
  echo "route listed in the $main header but not served by $mux: $route" >&2
  missing=1
done < <(comm -13 <(echo "$served") <(echo "$listed"))
routes=$(echo "$served" | wc -l)
if [ "$missing" -ne 0 ]; then
  echo "check_docs_drift: FAIL — daemon routes and their documentation disagree" >&2
  exit 1
fi
echo "check_docs_drift: OK — all $count cmd/neurocardd flags documented in $readme, $routes routes match the $main header"
