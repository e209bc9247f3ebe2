# Convenience targets; the repo needs only the Go toolchain. The optional
# linters (staticcheck, govulncheck) are installed on demand into
# $(TOOLS_BIN) at pinned versions; when the network is unavailable and the
# binary is not already present, their targets warn and skip instead of
# failing so `make check` stays usable offline.

GO ?= go
GOFMT ?= gofmt

TOOLS_BIN            := $(CURDIR)/.tools/bin
STATICCHECK_VERSION  ?= 2025.1.1
GOVULNCHECK_VERSION  ?= v1.1.4
STATICCHECK          := $(TOOLS_BIN)/staticcheck
GOVULNCHECK          := $(TOOLS_BIN)/govulncheck

.PHONY: build test vet race cores check staticcheck govulncheck scanlint bench bench-alloc alloc-gate chaos docs-check loc benchmark-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

# The scheduler, the packages that run their parallel phases on it, and the
# snapshot store, at one, two and four cores: how tasks interleave, which
# worker wakes first and whether a cancel lands mid-task all change with the
# core count, and tier-1 has to be green on any of them (ROADMAP). scan-xp and anyscan drive
# the shared arc labeller (internal/result/tail.go) from concurrent workers;
# the server builds an epoch's index on a sweep, racing other sweeps and
# commits for the one publish; and graph.Store's lock-free readers race its
# commits on one atomic pointer.
cores:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/sched/ ./internal/core/ ./internal/gsindex/ ./internal/shard/ \
		./internal/scanxp/ ./internal/anyscan/ ./internal/server/ ./graph/

staticcheck:
	@command -v $(STATICCHECK) >/dev/null 2>&1 || \
		GOBIN=$(TOOLS_BIN) $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) 2>/dev/null || true
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "warning: staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping" >&2 ; \
	fi

govulncheck:
	@command -v $(GOVULNCHECK) >/dev/null 2>&1 || \
		GOBIN=$(TOOLS_BIN) $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) 2>/dev/null || true
	@if command -v $(GOVULNCHECK) >/dev/null 2>&1; then \
		$(GOVULNCHECK) ./... ; \
	else \
		echo "warning: govulncheck $(GOVULNCHECK_VERSION) unavailable (offline?); skipping" >&2 ; \
	fi

# The project-specific analyzers (internal/lint, cmd/scanlint), six
# syntactic checks of invariants no test or -race run reliably sees:
# workspace aliasing (wsalias), canonical metric names (metricname),
# atomic/plain access mixing (atomicmix), goroutine panic containment
# (panicsafe), snapshot immutability (snapfreeze) and bounded blocking
# waits (chanwait) — plus every //lint: directive that names none of them.
# Built from source — no network needed — so it always runs, unlike the
# optional linters above. OPERATIONS.md §9 is the triage guide.
scanlint:
	$(GO) build -o $(TOOLS_BIN)/scanlint ./cmd/scanlint
	$(TOOLS_BIN)/scanlint ./...

# The serving hot path must stay within its heap-allocation budget (see
# TestServingAllocBudget). Run WITHOUT -race: the race runtime allocates
# per instrumented access, so the test skips itself under it — this
# dedicated pass is what actually enforces the gate.
alloc-gate:
	$(GO) test -run TestServingAllocBudget -count 1 -v ./internal/engine/

# The fault-containment suite under the race detector: seeded chaos runs
# across every engine, the server panic/stall acceptance scenarios and the
# shard-tier drills — seeded fault schedules
# against a worker fleet plus real scanshard processes killed and
# restarted mid-superstep (see OPERATIONS.md "Failure modes" and §14).
# Already part of `make race`; this target iterates on just the
# containment paths. Set SHARD_CHAOS_LOG_DIR to keep the worker
# processes' logs on disk (CI uploads them as artifacts on failure).
chaos:
	$(GO) test -race -count 1 -run 'TestChaos|TestDistscanSuperstepRetry|TestDistscanRetryExhaustion|TestAcceptance|TestServerChaos|TestBuildOnMiss|TestHandlerPanic|TestShardChaos' \
		./internal/engine/ ./internal/server/ ./internal/shard/

# Documentation drift gate (cmd/docscheck): every flag each CLI binary
# actually registers must have a backticked `-flag` entry in
# OPERATIONS.md, every HTTP route the server registers must appear in the
# README API reference, and the OPERATIONS.md §9 analyzer table must match
# `scanlint -list` (both name directions plus each suppression directive),
# the OPERATIONS.md metric tables must match the constants of
# internal/obsv/names.go (both directions), and README, DESIGN, OPERATIONS, EXPERIMENTS and benchmark/README.md must
# stay within their committed line ceilings (docscheck's lineCeilings).
# Built from source like scanlint — no network.
docs-check:
	$(GO) build -o $(TOOLS_BIN)/ ./cmd/scanserver ./cmd/scanshard ./cmd/ppscan ./cmd/docscheck ./cmd/scanlint
	$(TOOLS_BIN)/docscheck -ops OPERATIONS.md -readme README.md \
		-scanlint $(TOOLS_BIN)/scanlint \
		$(TOOLS_BIN)/scanserver $(TOOLS_BIN)/scanshard $(TOOLS_BIN)/ppscan

# The repository benchmark (BENCHMARK.json) is a Go module of its own under
# benchmark/ that imports ppscan/internal/server, so `go test ./...` never
# compiles it: vet and test it here after any change to an API it uses.
benchmark-test:
	cd benchmark && $(GO) vet . && $(GO) test .

# Non-test and test Go lines per package, with the four totals ROADMAP's
# code-budget items are stated in: internal/ + cmd/, the lint tooling
# (internal/lint + cmd/scanlint, fixtures counted as test lines), the
# paper's algorithm, its five baselines and the seam that reaches them
# (core + baselines + engine), and the serving tier with its fleet
# (server + shard + cmd/scanshard). Informational, never a gate.
loc:
	@find . -name '*.go' -not -path './.*' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); seen[d] = 1; \
	       if ($$2 ~ /_test\.go$$/) t[d] += $$1; else s[d] += $$1 } \
	     END { for (d in seen) printf "%s %d %d\n", d, s[d], t[d] }' | sort | \
	awk 'BEGIN { printf "%-36s %9s %9s\n", "package", "non-test", "test" } \
	     { printf "%-36s %9d %9d\n", $$1, $$2, $$3 } \
	     $$1 ~ /^\.\/(internal|cmd)\// { s += $$2; t += $$3 } \
	     $$1 ~ /^\.\/(internal\/lint|cmd\/scanlint)(\/|$$)/ { \
	       if ($$1 ~ /\/testdata\//) lt += $$2; else ls += $$2; lt += $$3 } \
	     $$1 ~ /^\.\/internal\/(core|scan|pscan|scanxp|anyscan|engine)$$/ { es += $$2; et += $$3 } \
	     $$1 ~ /^\.\/(internal\/(server|shard)|cmd\/scanshard)$$/ { fs += $$2; ft += $$3 } \
	     END { printf "%-36s %9d %9d\n", "internal/ + cmd/", s, t; \
	           printf "%-36s %9d %9d\n", "internal/lint + cmd/scanlint", ls, lt; \
	           printf "%-36s %9d %9d\n", "core + baselines + engine", es, et; \
	           printf "%-36s %9d %9d\n", "server + shard + cmd/scanshard", fs, ft }'

# The pre-merge gate: static checks, the full suite under the race
# detector (the parallel phases, scheduler crew and HTTP middleware
# are all exercised concurrently), the scheduler's dependants at one, two
# and four cores, the chaos/fault-containment suite, the non-race
# allocation gate, and the benchmark module (outside `./...`, and an
# importer of internal/server). No step judges a timing: that is the
# repository benchmark's job (BENCHMARK.json, OPERATIONS.md §11).
check: vet scanlint staticcheck govulncheck docs-check benchmark-test
	$(GO) test -race ./...
	$(MAKE) cores
	$(MAKE) chaos
	$(MAKE) alloc-gate

# Benchmark sweep: the root package's facade benchmarks (one round-trip per
# algorithm, index build vs query — no table, figure or ablation:
# cmd/experiments is their only producer) plus the
# engine- and server-level serving benchmarks, with -count 6 so the outputs
# feed benchstat:
#   make bench > old.txt ; <edit> ; make bench > new.txt
#   benchstat old.txt new.txt
# (benchstat is golang.org/x/perf/cmd/benchstat; without it, eyeball the
# per-count spread.) bench is for interactive A/B comparison; nothing
# gates on its output.
bench:
	$(GO) test -bench . -benchtime 10x -count 6 .
	$(GO) test -run xxx -bench . -benchtime 20x -count 6 ./internal/engine/
	$(GO) test -run xxx -bench . -benchtime 20x -count 6 ./internal/server/

# Pooled-workspace serving benchmarks: warm (steady-state) vs cold runs of
# the engine, plus the end-to-end server resolve path. allocs/op is the
# headline number; pipe `-count 10` outputs into benchstat to compare
# before/after (numbers recorded in EXPERIMENTS.md).
bench-alloc:
	$(GO) test -run xxx -bench 'BenchmarkEngine(SteadyState|ColdRun)' -benchtime 20x -count 3 ./internal/engine/
	$(GO) test -run xxx -bench BenchmarkServerSteadyState -benchtime 20x -count 3 ./internal/server/
