# Astra (Go reproduction) — common developer entry points.

GO ?= go

.PHONY: all build test test-short vet verify lint race fuzz-smoke bench bench-json experiments experiments-quick cover cover-check analyze whatif serve serve-smoke costmodel clean

all: build lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting + static checks; fails listing the unformatted files, if any.
# astra-lint is the in-tree static-analysis suite (internal/lint, see
# docs/LINT.md): the determinism rule family, lock discipline over the
# concurrent packages, and the escape rule, which reports the compiler's
# heap-allocation notes (-gcflags=-m) inside //astra:hotpath functions —
# all rules, every internal/ and cmd/ package, one worker per CPU (output
# is byte-identical to a serial run).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/astra-lint -parallel 0

# Plan verifier sweep: prove every model x preset x worker-count
# combination free of races, deadlocks, aliasing and illegal fusion.
verify:
	$(GO) run ./cmd/astra-vet

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass: the telemetry layer (internal/obs) is shared across
# goroutines when dispatch goes concurrent; keep it provably race-free.
# -short skips the multi-minute paper-table regenerations, which exceed the
# test timeout under the detector's ~20x slowdown; every package still runs.
race:
	$(GO) test -race -short ./...

# Fuzz smoke (CI's test job): ten seconds of coverage-guided fuzzing on
# each parser of input from outside the program — profile-index snapshots
# (read from a file or the service's HTTP API) and service job requests.
# `go test` alone runs only their seed corpora. Minimizing is off: it can
# spend the whole window shrinking one new corpus entry. A crasher lands
# under the package's testdata/fuzz: fix the code and commit the crasher
# as a seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzIndexLoad$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve

cover:
	$(GO) test -short -cover ./...

# Coverage gate: total -short statement coverage must stay at or above the
# checked-in baseline (.github/coverage-baseline.txt). Raise the baseline
# when a PR durably improves coverage; never lower it to make CI pass.
COVER_OUT ?= coverage.out
cover-check:
	$(GO) test -short -coverprofile=$(COVER_OUT) ./...
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ {sub("%","",$$3); print $$3}'); \
	base=$$(cat .github/coverage-baseline.txt); \
	echo "total coverage: $$total% (baseline $$base%)"; \
	ok=$$(awk -v t="$$total" -v b="$$base" 'BEGIN { print (t+0 >= b+0) ? "yes" : "no" }'); \
	if [ "$$ok" != "yes" ]; then echo "FAIL: coverage $$total% dropped below baseline $$base%"; exit 1; fi

# Trace-analytics smoke: run a tiny instrumented session, audit the
# analyzer's exactness invariants on its event log, and prove the output
# byte-identical at -parallel 1 vs 4 (CI's analyze-smoke job runs this).
ANALYZE_EVENTS ?= /tmp/astra-analyze-smoke.jsonl
analyze:
	$(GO) run ./cmd/astra-run -model sublstm -level F -steps 2 -events-out $(ANALYZE_EVENTS) > /dev/null
	$(GO) run ./cmd/astra-analyze -events $(ANALYZE_EVENTS) -check
	$(GO) run ./cmd/astra-analyze -events $(ANALYZE_EVENTS) -report all -parallel 1 > $(ANALYZE_EVENTS).p1
	$(GO) run ./cmd/astra-analyze -events $(ANALYZE_EVENTS) -report all -parallel 4 > $(ANALYZE_EVENTS).p4
	cmp $(ANALYZE_EVENTS).p1 $(ANALYZE_EVENTS).p4
	@echo "analyze: reconciliation exact, output byte-identical at -parallel 1 vs 4"

# What-if smoke: record a two-worker run, replay the fabric × ring-size
# scenario matrix, validate every prediction against ground-truth
# re-simulation within 5%, and prove the matrix output byte-identical at
# -parallel 1 vs 4 (CI's whatif-smoke job runs this).
WHATIF_EVENTS ?= /tmp/astra-whatif-smoke.jsonl
whatif:
	$(GO) run ./cmd/astra-run -model sublstm -level FK -steps 2 -workers 2 -fabric pcie3 -events-out $(WHATIF_EVENTS) > /dev/null
	$(GO) run ./cmd/astra-whatif -events $(WHATIF_EVENTS) -matrix -fabrics pcie3,nvlink1 -workers-list 1,2,4,8 -check -tolerance 5
	$(GO) run ./cmd/astra-whatif -events $(WHATIF_EVENTS) -matrix -fabrics pcie3,nvlink1 -workers-list 1,2,4,8 -json -parallel 1 > $(WHATIF_EVENTS).p1
	$(GO) run ./cmd/astra-whatif -events $(WHATIF_EVENTS) -matrix -fabrics pcie3,nvlink1 -workers-list 1,2,4,8 -json -parallel 4 > $(WHATIF_EVENTS).p4
	cmp $(WHATIF_EVENTS).p1 $(WHATIF_EVENTS).p4
	@echo "whatif: predictions within tolerance, output byte-identical at -parallel 1 vs 4"

# Exploration service: run the multi-tenant astra-serve daemon locally
# (HTTP/JSON API on 127.0.0.1:7411; see docs/SERVE.md).
serve:
	$(GO) run ./cmd/astra-serve

# Service smoke (CI's serve-smoke job): drive the standard tenant mix
# through the real HTTP stack twice — a cold pass, then a fully-warm repeat
# that must score a 100% hit rate with zero wired-time drift — and finish
# with a graceful drain. Then the ext-serve harness run: 1024 sessions
# across 32 tenants against one shared fleet store, every result checked
# against its solo baseline.
serve-smoke:
	$(GO) run ./cmd/astra-serve -smoke -smoke-tenants 8 -smoke-jobs 3
	$(GO) run ./cmd/astra-bench -experiment ext-serve -parallel -1

# Cost-model gate (CI's costmodel-smoke job; see docs/COSTMODEL.md): the
# ext-costmodel harness trains the model from a donor session and proves the
# prior-seeded exploration converges in >= 25% fewer trials on at least 3 of
# 4 model/fabric cells, never prunes a cold-run winner, and stays within
# 0.1% of both the cold run and the exhaustive comm sweep — then proves the
# whole table byte-identical at -parallel 1 vs 4.
COSTMODEL_OUT ?= /tmp/astra-costmodel
costmodel:
	$(GO) run ./cmd/astra-bench -experiment ext-costmodel -parallel 1 > $(COSTMODEL_OUT).p1
	$(GO) run ./cmd/astra-bench -experiment ext-costmodel -parallel 4 > $(COSTMODEL_OUT).p4
	cmp $(COSTMODEL_OUT).p1 $(COSTMODEL_OUT).p4
	@echo "costmodel: acceptance gates green, output byte-identical at -parallel 1 vs 4"

# Reduced per-table benchmarks (batch 16/32), with allocation stats.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# Machine-readable benchmark trajectory: the fast experiment subset, quick
# sweeps, one worker per CPU, timings+allocations as JSON. CI's bench-smoke
# job runs this against the committed BENCH_PR5.json (see docs/PERFORMANCE.md).
BENCH_SMOKE_IDS ?= table1,sec32,fig2,table3,table9,inventory,ablation-profiling
BENCH_JSON_OUT ?= bench.json
bench-json:
	$(GO) run ./cmd/astra-bench -experiment $(BENCH_SMOKE_IDS) -quick -parallel -1 -json-out $(BENCH_JSON_OUT)

# Regenerate every paper table/figure (takes tens of minutes).
experiments:
	$(GO) run ./cmd/astra-bench -experiment all

experiments-quick:
	$(GO) run ./cmd/astra-bench -experiment all -quick -parallel -1

clean:
	$(GO) clean ./...
