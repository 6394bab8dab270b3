GO      ?= go
# Relation size for the benchmark targets (the acceptance point is 1M;
# the default keeps local/CI runs short).
BENCH_N ?= 100000

.PHONY: all build test race vet lint authlint bench proof ingest serve bench-serve bench-net bench-wal bench-chaos bench-fleet bench-verify bench-query clean

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

# Full static pass: go vet, the authlint invariant suite, and — when
# installed (CI pins them; nothing is downloaded here) — staticcheck
# and govulncheck.
lint: vet authlint
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

# One pass over every benchmark; AUTHDB_PROOF_N bounds the headline
# proof-construction fixture.
bench:
	AUTHDB_PROOF_N=$(BENCH_N) $(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Emit BENCH_proof.json (tree vs linear proof construction).
proof:
	$(GO) run ./cmd/authbench proof -n $(BENCH_N) -k 10000

# Emit BENCH_ingest.json (pipelined vs serial signing).
ingest:
	$(GO) run ./cmd/authbench ingest -n $(BENCH_N)

# Emit BENCH_serve.json (answer cache + coalescing, cold vs cached QPS).
bench-serve:
	$(GO) run ./cmd/authbench serve -n $(BENCH_N)

# Re-emit BENCH_ingest.json with the durable (write-ahead logged)
# pipelined-load column: group-commit overhead vs in-memory.
bench-wal:
	$(GO) run ./cmd/authbench ingest -n $(BENCH_N) -wal

# Emit BENCH_net.json (verifying clients over real loopback TCP sockets).
bench-net:
	$(GO) run ./cmd/authbench net -n $(BENCH_N)

# Emit BENCH_chaos.json (hostile-network soak: faults, kill/recover
# cycles, overload shedding; non-zero exit on any safety violation).
bench-chaos:
	$(GO) run ./cmd/authbench chaos -n 20000

# Emit BENCH_fleet.json (untrusted replica fleet soak: snapshot
# bootstrap, client failover, Byzantine replica detection; non-zero
# exit unless every attack was detected and attributed).
bench-fleet:
	$(GO) run ./cmd/authbench fleet -n 20000

# Emit BENCH_verify.json (BAS verification fast path vs the portable
# oracle: portable/cold/warm answers-per-second, worker sweep, cache
# counters, equivalence evidence; non-zero exit if fast and portable
# ever disagree).
bench-verify:
	$(GO) run ./cmd/authbench verify -check

# Emit BENCH_query.json (select-project-join plans over a 2-relation
# catalog: verified wire traffic with cache-invalidation assertions +
# planner speedup, pushdown+parallel vs naive serial; non-zero exit
# unless every accepted row's composite VO verified).
bench-query:
	$(GO) run ./cmd/authbench query -check

# Run the networked serving daemon (Ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/authserve serve -n $(BENCH_N)

clean:
	$(GO) clean ./...
	rm -f BENCH_proof.json BENCH_ingest.json BENCH_serve.json BENCH_net.json BENCH_chaos.json BENCH_fleet.json BENCH_verify.json BENCH_query.json
