#!/usr/bin/env bash
# deadcode.sh — function lines the service declares but never links.
#
# Builds the service binaries with inlining off (-gcflags=all=-l, so every
# function that is called keeps a text symbol), lists their `go tool nm`
# text symbols under authdb/internal/, and diffs that list against the
# top-level functions declared in the non-test files of internal/ outside
# analysis/ and repro/. gofmt guarantees a top-level func ends at the next
# line that is exactly "}", so a function's lines are counted from its
# `func` line to that brace.
#
# Prints lines and functions per package, grouped: the benchmark pins
# (benchpin.go), faultnet (test support), the renewal code that waits on
# ROADMAP item 10, the packages the frozen benchmark imports, and the rest
# — the figure that counts. With -max N, exits 1 when the rest exceeds N.
#
#   bash tools/deadcode.sh [-v] [-max N]
#
# -v also lists every unlinked function with its file, line and length.
set -euo pipefail

max=""
verbose=0
while [ $# -gt 0 ]; do
	case "$1" in
	-max) max="$2"; shift 2 ;;
	-v) verbose=1; shift ;;
	*) echo "usage: $0 [-v] [-max N]" >&2; exit 2 ;;
	esac
done

cd "$(dirname "$0")/.."
GO=${GO:-go}
bins=${SERVICE:-./cmd/authserve ./cmd/authdemo ./examples/quickstart ./examples/remote ./examples/trading}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for b in $bins; do
	$GO build -gcflags=all=-l -o "$tmp/bin.$(basename "$b")" "$b"
done

# Linked: pkg.Type.Name or pkg.Name, with type arguments, pointer
# receivers, closures, deferred/go wrappers and method values folded
# onto the function that declares them.
for f in "$tmp"/bin.*; do
	$GO tool nm "$f"
done | awk '
	($2 == "T" || $2 == "t") && index($3, "authdb/internal/") == 1 {
		s = substr($0, index($0, $3))
		while (gsub(/\[[^][]*\]/, "", s)) {}
		gsub(/\(\*/, "", s); gsub(/\)/, "", s)
		sub(/-fm$/, "", s)
		while (sub(/\.(func|deferwrap|gowrap)[0-9]+$/, "", s) || sub(/\.[0-9]+$/, "", s)) {}
		print s
	}' | sort -u >"$tmp/linked"

# Declared: one line per top-level func in a non-test file (every
# platform's: a twin under another build tag shares its key): key, lines,
# package, group, file:line.
find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/analysis/*' ! -path 'internal/repro/*' |
	sort | xargs awk '
	function emit(end) {
		g = "service"
		if (base == "benchpin.go") g = "pins"
		else if (pkg ~ /\/faultnet$/) g = "faultnet"
		else if (base == "ageheap.go" || name == "RenewOld" || name == "OldestCertTS" ||
			(pkg ~ /\/freshness$/ && recv == "Checker" && name == "Trim")) g = "item10"
		else if (pkg ~ /\/(btree|storage|workload)$/) g = "benchmark"
		key = pkg "." (recv != "" ? recv "." : "") name
		printf "%s %d %s %s %s:%d\n", key, end - start + 1, pkg, g, FILENAME, start
		infunc = 0
	}
	FNR == 1 {
		pkg = base = FILENAME
		sub(/\/[^\/]*$/, "", pkg); pkg = "authdb/" pkg
		sub(/.*\//, "", base)
		infunc = 0
	}
	/^func / {
		s = $0
		while (gsub(/\[[^][]*\]/, "", s)) {}
		recv = ""
		if (match(s, /^func \([^)]*\) /)) {
			r = substr(s, 7, RLENGTH - 8)
			n = split(r, parts, " ")
			recv = parts[n]; sub(/^\*/, "", recv)
			s = substr(s, RLENGTH + 1)
		} else {
			s = substr(s, 6)
		}
		name = s; sub(/\(.*/, "", name)
		start = FNR; infunc = 1
		if ($0 ~ /}$/) emit(FNR)
		next
	}
	infunc && $0 == "}" { emit(FNR) }
' >"$tmp/declared"

awk -v verbose="$verbose" -v max="$max" '
	FILENAME == ARGV[1] { linked[$1] = 1; next }
	{
		declared++
		if ($1 in linked) next
		lines[$4, $3] += $2; funcs[$4, $3]++
		glines[$4] += $2; gfuncs[$4]++
		unlinked++
		if (verbose) printf "  %5d  %s  %s\n", $2, $1, $5
	}
	END {
		split("service benchmark item10 pins faultnet", order, " ")
		title["service"] = "the service (the figure that counts)"
		title["benchmark"] = "imported by the frozen benchmark (btree, storage, workload; ROADMAP item 2)"
		title["item10"] = "renewal and trimming (RenewOld, OldestCertTS, ageheap.go, Checker.Trim; ROADMAP item 10)"
		title["pins"] = "benchmark pins (benchpin.go; ROADMAP item 2)"
		title["faultnet"] = "faultnet (test support)"
		printf "%7s %5s  unlinked function lines / functions, per package\n", "lines", "funcs"
		for (i = 1; i <= 5; i++) {
			gname = order[i]
			printf "-- %s\n", title[gname]
			for (k in lines) {
				split(k, gp, SUBSEP)
				if (gp[1] == gname) printf "%7d %5d  %s\n", lines[k], funcs[k], gp[2] | "sort -k3"
			}
			close("sort -k3")
			printf "%7d %5d  subtotal: %s\n", glines[gname], gfuncs[gname], gname
		}
		total = glines["service"] + glines["benchmark"] + glines["item10"] + glines["pins"] + glines["faultnet"]
		printf "%7d %5d  unlinked in total, of %d declared functions\n", total, unlinked, declared
		printf "%7d        deadcode (the service group)\n", glines["service"]
		if (max != "" && glines["service"] > max + 0) {
			printf "deadcode: %d unlinked service lines exceed the ceiling of %d\n", glines["service"], max
			exit 1
		}
	}' "$tmp/linked" "$tmp/declared"
