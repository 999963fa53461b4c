# Single source of truth for the commands CI runs; keep .github/workflows/ci.yml
# pointed at these targets so local dev and CI cannot drift.

GO ?= go

# Minimum statement coverage over the packages `make cover` measures
# (internal/exp, internal/sched, internal/plan, internal/rng and
# internal/population: the sweep engine, its scheduler substrate, the
# engine planner, the generator whose rare draw paths no simulation
# reaches, and the colour vector in both its one-byte and four-byte
# layouts). Currently ~95%; the floor leaves headroom for refactors while
# catching untested new code.
COVER_MIN ?= 85

.PHONY: build test test-short test-race cover bench bench-smoke examples-smoke \
	serve-smoke sweep-smoke sweep-baseline sweep-nightly \
	adv-smoke topo-smoke net-smoke lint fmt api api-check

build:
	$(GO) build ./...

# Regenerate the committed public-API surface record (run after an
# intentional API change; commit the result).
api:
	$(GO) doc -all . > api.txt

# CI gate: the public surface of the root package must match the committed
# api.txt, so accidental exports — or accidentally dropped public API —
# fail the build instead of shipping silently.
api-check:
	@$(GO) doc -all . | diff -u api.txt - \
		|| { echo "public API surface drifted: run 'make api' and commit api.txt"; exit 1; }

test:
	$(GO) test ./...

test-short:
	$(GO) test -shuffle=on -short ./...

# Race-enabled short tests of every package, then five race passes of the
# tick feed: a clique run under Poisson clocks draws its ticks on a second
# goroutine and passes them to the engine through channels, so the feed's
# own tests and the two engine equivalence tests that reach its producer
# run again. Last, twenty race passes of the daemon's two tests that
# resubmit a spec as soon as its job reads done: a job must be settled
# (cached and counted) before its terminal state is published.
test-race:
	$(GO) test -race -shuffle=on -short ./...
	$(GO) test -race -count=5 -short \
		-run '^(TestFeed.*|TestStagedLoopMatchesGeneralPath|TestBatchedRunMatchesPerTick)$$' \
		./internal/sched ./internal/protocols/dynamics ./internal/core
	$(GO) test -race -count=20 -short \
		-run '^(TestResubmitAfterDoneHitsCache|TestMetricsAndList)$$' ./internal/service

# Statement coverage of the experiment engine, the scheduler, the engine
# planner, the generator and the population, with a minimum-coverage gate
# (override the floor with COVER_MIN=nn).
cover:
	$(GO) test -coverprofile=cover.out ./internal/exp ./internal/sched ./internal/plan ./internal/rng ./internal/population
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t + 0 < m + 0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# Full benchmark pass (slow; regenerates local numbers, not committed).
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One iteration of every benchmark — catches benchmarks that no longer
# compile or crash, without paying measurement time.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Run every example program once; the first non-zero exit fails the
# target. `go build ./...` compiles them, but only this runs them.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# CI serve harness: the curl quickstart script from README.md against a
# live daemon. The service contract itself (cache hit and byte-identical
# replay, 429 + Retry-After, DELETE, completion accounting, the reference
# job's tick count) is pinned by the internal/service tests.
serve-smoke:
	./scripts/serve_quickstart.sh

# CI regression harness: run every named sweep at smoke size, write the
# BENCH_exp.json artifact, run the statistical gates, and diff against the
# committed baseline within tolerance bands.
sweep-smoke:
	$(GO) run ./cmd/experiments -sweep all -smoke -out BENCH_exp.json \
		-baseline BENCH_exp_baseline.json

# Regenerate BENCH_exp_baseline.json, the one committed baseline: every
# named sweep's smoke report, which sweep-smoke, adv-smoke, topo-smoke and
# net-smoke diff against (run after an intentional change to protocol
# behavior or sweep grids; commit the result).
sweep-baseline:
	$(GO) run ./cmd/experiments -sweep all -smoke -out BENCH_exp_baseline.json

# CI adversary harness: the adversary-threshold sweep at smoke size under
# the race detector (the adversary hooks share engine state with the
# simulation loop, so the threshold run doubles as a race gate), diffed
# against the committed baseline on machine-portable quantities only
# (survival counts, corruption counters, simulated consensus time — never
# wall clock). The sweep's own gates pin the phase transition: survival at
# f = n^0.3, collapse at f = 4*sqrt(n), bit-clean zero-budget controls.
adv-smoke:
	$(GO) run -race ./cmd/experiments -sweep adversary-threshold -smoke \
		-out BENCH_adv.json -baseline BENCH_exp_baseline.json

# CI topology harness: the topology-equivalence sweep at smoke size under
# the race detector — the degree-class lumped engine against the per-node
# oracle on annealed topologies (and the CSR fast path on the quenched
# control) — diffed against the committed baseline on machine-portable
# quantities only. The sweep's own gates pin lumping exactness.
topo-smoke:
	$(GO) run -race ./cmd/experiments -sweep topology-equivalence -smoke \
		-out BENCH_topo.json -baseline BENCH_exp_baseline.json

# CI node-runtime harness: the net-equivalence sweep at smoke size under
# the race detector (the runtime's nodes are coroutines exchanging
# messages, each on a goroutine of its own, so the oracle gate doubles as a
# race gate), diffed against the committed baseline on machine-portable
# quantities only (simulated consensus times, deterministic message counts
# — never wall clock), then the README two-process TCP cluster quickstart
# end to end. The sweep's own KS gate pins the networked consensus-time
# distribution to the simulator's. Last, a race stress of the runtime: ten
# passes of the cluster, fabric and TCP tests. The fabric's dispatch runs
# on whichever node blocks last — a coroutine switched to from the
# cluster's goroutine, or a goroutine a raw fabric's caller started — while
# Close arrives from the context watcher; the TCP tests run real sockets,
# and start from counts whose minority never wins, so their majority
# checks hold on wall clock.
net-smoke:
	$(GO) run -race ./cmd/experiments -sweep net-equivalence -smoke \
		-out BENCH_net.json -baseline BENCH_exp_baseline.json
	./scripts/net_quickstart.sh
	$(GO) test -race -count=10 -run 'Cluster|Fabric|TCP' ./internal/node

# Full-size logn-scaling sweep, the nightly job's workload.
sweep-nightly:
	$(GO) run ./cmd/experiments -sweep logn-scaling -out BENCH_exp_nightly.json

# vet + gofmt always run; staticcheck and govulncheck run when installed
# (CI installs both at pinned versions — see .github/workflows/ci.yml) and
# are skipped with a notice otherwise, so offline dev machines still lint.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it pinned)"; \
	fi

fmt:
	gofmt -w .
