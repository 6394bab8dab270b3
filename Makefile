GO      ?= go
# Relation size for `make bench` and `make serve` (the paper's point is
# 1M; the default keeps local runs short).
BENCH_N ?= 100000

.PHONY: all build test race vet lint authlint fence loc deadcode bench pairs serve clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled pass over the whole module.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The repo's own invariant suite (see DESIGN.md "Invariants & static
# analysis"): buffer custody, lock/epoch discipline, retry
# classification, signer/verifier cache separation, no blocking under
# core locks.
authlint:
	$(GO) run ./cmd/authlint ./...

# The service binaries — authserve, authdemo and the quickstart, remote
# and trading examples — and the server and client packages they are
# built from: what make deadcode measures.
SERVICE = ./cmd/authserve ./cmd/authdemo ./examples/quickstart ./examples/remote ./examples/trading

# The service must not depend on the paper reproduction, nor on the
# page-modelled B+-tree and its page model, which only Table 1 and the
# frozen benchmark use: nothing the service binaries, the server or the
# client link may live under internal/repro/, internal/btree or
# internal/storage.
fence:
	@if $(GO) list -deps $(SERVICE) ./internal/server ./internal/client | grep -E 'internal/(repro/|btree$$|storage$$)'; then \
		echo "the service imports the reproduction, btree or storage (packages above)"; exit 1; \
	fi

# Non-test go lines outside benchmark/ (its own module), per package and
# in total: the figure ROADMAP.md and CHANGES.md report for every PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_*' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
		| sort -k2

# Function lines declared in the service's packages (internal/ outside
# analysis/ and repro/) that none of the service binaries links, per
# package, with the benchmark pins, faultnet, the renewal code ROADMAP
# item 10 waits on and the packages the frozen benchmark imports counted
# apart (tools/deadcode.sh). Fails when the rest exceeds DEADCODE_MAX,
# the figure the last change reached: it may only fall.
DEADCODE_MAX ?= 111
deadcode:
	@SERVICE="$(SERVICE)" bash tools/deadcode.sh -max $(DEADCODE_MAX)

# Full static pass: go vet, the authlint invariant suite, the import
# fence, and — when installed (CI pins them; nothing is downloaded
# here) — staticcheck and govulncheck.
lint: vet authlint fence
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# One pass over every go test microbenchmark; AUTHDB_PROOF_N bounds the
# headline proof-construction fixture. Service throughput, latency,
# bytes and RSS are benchmark/run.sh's (see BENCHMARK.json).
bench:
	AUTHDB_PROOF_N=$(BENCH_N) $(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The working tree against revision REV on N alternating pairs of
# benchmark/run.sh runs of workload W at seed SEED (tools/benchpairs.sh;
# SHORT=1 for the smoke sizes): every run, then per gated metric the
# medians, quartiles and pairs won.
REV  ?= HEAD
W    ?= hot_range
N    ?= 10
SEED ?= 3
pairs:
	bash tools/benchpairs.sh $(if $(SHORT),--short) $(REV) $(W) $(N) $(SEED)

# Run the networked serving daemon (Ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/authserve serve -n $(BENCH_N)

clean:
	$(GO) clean ./...
	rm -rf .bench_build .bench_pairs benchmark/out
