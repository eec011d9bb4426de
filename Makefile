# Developer/CI entry points. `make ci` is the gate: vet (with the
# detlint analyzers wired in as a vettool), build, the determinism lint
# sweep, the full test suite under the race detector, the allocation
# gate for the simulation hot paths (run without -race, which would
# perturb the counts), a short hot-path benchmark smoke so ns/op
# regressions fail fast, a few seconds of fuzzing of the model codec,
# the CLI determinism smokes, and a one-iteration benchmark pass (which
# also regenerates the paper's tables and figures once and exercises the
# attack and architecture-fingerprinting and topology-recovery stages at
# both worker counts via BenchmarkAttackStage, BenchmarkArchIDStage and
# BenchmarkTopoStage).

GO ?= go

# PR number stamped into the benchmark trajectory snapshot.
BENCH_PR ?= 15
BENCH_JSON ?= BENCH_PR$(BENCH_PR).json
# Key micro/campaign benches tracked across PRs (BenchmarkConvKernels
# lives in internal/tensor, the rest in the root package).
BENCH_KEY = BenchmarkClassifyMNIST$$|BenchmarkClassifyBatch|BenchmarkCacheAccess$$|BenchmarkEngineLoadHot$$|BenchmarkEngineLoadRange$$|BenchmarkBranchPredict$$|BenchmarkPMUMeasure$$|BenchmarkAttackStage|BenchmarkArchIDStage|BenchmarkTopoStage|BenchmarkMonitorStream|BenchmarkTrainMNIST|BenchmarkNewScenarioMNIST|BenchmarkConvKernels

.PHONY: all build vet lint test race bench bench-json allocgate benchsmoke fuzzsmoke fabricsmoke batchsmoke streamsmoke obssmoke ci golden

all: build

build:
	$(GO) build ./...

# DETLINT is where the vettool binary is staged for `make vet`.
DETLINT := $(shell mktemp -u)/detlint

# vet runs the standard suite plus the repo's own analyzers through the
# go vet tool protocol, so editors and CI share one diagnostic stream.
vet:
	$(GO) vet ./...
	@mkdir -p $(dir $(DETLINT))
	$(GO) build -o $(DETLINT) ./cmd/detlint
	$(GO) vet -vettool=$(DETLINT) ./...
	@rm -rf $(dir $(DETLINT))

# lint runs the determinism analyzer suite standalone (faster iteration
# than the vet protocol; same findings).
lint:
	$(GO) run ./cmd/detlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# Snapshot the key benches into the perf trajectory file for this PR.
# Commit the result so the trajectory BENCH_*.json series stays populated.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_KEY)' -benchmem -benchtime=2s . ./internal/tensor \
		| $(GO) run ./cmd/benchjson -pr $(BENCH_PR) > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# Allocation gate: the hot paths (Hierarchy.Access, Engine.Load on a
# cached line, PMU.MeasureOnceInto steady state, the stream stage's
# window emission, and the nil-Recorder telemetry hooks) must stay at
# 0 allocs/op.
allocgate:
	$(GO) test -run 'ZeroAlloc' ./internal/march/... ./internal/hpc ./internal/pipeline ./internal/obs

# Fast hot-path smoke: catches order-of-magnitude regressions in seconds.
benchsmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkCacheAccess$$|BenchmarkClassifyMNIST$$' -benchtime=100x .

# Fuzz smoke: a few seconds of coverage-guided fuzzing of the model
# codec, whose bytes cross the process boundary inside fabric specs.
# LoadModel must never panic, and every model it accepts must re-save to
# a canonical form. Minimization is capped so a new input's shrinking
# (the seed is a whole saved MNIST model) cannot eat the time budget.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadModel$$' -fuzztime 5s -fuzzminimizetime 100x -parallel 2 ./internal/nn

# Multi-process determinism smoke for the distributed audit fabric: the
# same campaign is run through the CLI in-process and at -processes 1
# and -processes 2, and the raw distribution CSVs must be byte-identical.
# Workers run the coordinator's shipped model, so the in-process
# comparison catches a loaded model that drifted from the trained one.
# (The fabric's full fault-injection suite runs under -race as part of
# `race`.)
fabricsmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) build -o $$tmp/shardworker ./cmd/shardworker; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-processes 0 -csv $$tmp/p0.csv >/dev/null; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-processes 1 -worker-bin $$tmp/shardworker -csv $$tmp/p1.csv >/dev/null; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-processes 2 -worker-bin $$tmp/shardworker -csv $$tmp/p2.csv >/dev/null; \
	cmp $$tmp/p1.csv $$tmp/p2.csv; \
	cmp $$tmp/p0.csv $$tmp/p2.csv; \
	echo "fabricsmoke: in-process, processes=1 and processes=2 distributions are byte-identical"

# Batched-collection determinism smoke: the same campaign is run through
# the CLI at -batch 1 and -batch 8 and the raw distribution CSVs must be
# byte-identical — per-input counter attribution inside a batched replay
# session is exact, so batch size may change wall-clock only.
batchsmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-batch 1 -csv $$tmp/b1.csv >/dev/null; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-batch 8 -csv $$tmp/b8.csv >/dev/null; \
	cmp $$tmp/b1.csv $$tmp/b8.csv; \
	echo "batchsmoke: batch=1 and batch=8 distributions are byte-identical"

# Streaming-monitor determinism smoke: the same campaign is run through
# cmd/monitor to exhaustion (-no-stop) at 2 and at 1 workers and through
# cmd/evaluate, and the raw distribution CSVs must be byte-identical —
# the stream seam reorders nothing and loses nothing. 150 runs per class
# plan 3 shards each, so at 2 workers the stream's 4 admission slots are
# recycled and producers run ahead of the merger.
streamsmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 150 -workers 2 -seed 17 \
		-csv $$tmp/batch.csv >/dev/null; \
	$(GO) run ./cmd/monitor -dataset mnist -classes 1,2 -budget 150 -workers 2 -seed 17 \
		-no-stop -csv $$tmp/stream.csv >/dev/null; \
	$(GO) run ./cmd/monitor -dataset mnist -classes 1,2 -budget 150 -workers 1 -seed 17 \
		-no-stop -csv $$tmp/stream1.csv >/dev/null; \
	cmp $$tmp/batch.csv $$tmp/stream.csv; \
	cmp $$tmp/stream1.csv $$tmp/stream.csv; \
	echo "streamsmoke: streamed-to-exhaustion and batch distributions are byte-identical at 1 and 2 workers"

# Telemetry smoke: a fully-traced multi-process campaign must emit a
# schema-valid Chrome trace while leaving the distribution CSV
# byte-identical to the untraced run — telemetry is observational
# output only, never an input.
obssmoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	$(GO) build -o $$tmp/shardworker ./cmd/shardworker; \
	$(GO) build -o $$tmp/obsview ./cmd/obsview; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-processes 2 -worker-bin $$tmp/shardworker -csv $$tmp/plain.csv >/dev/null; \
	$(GO) run ./cmd/evaluate -dataset mnist -classes 1,2 -runs 30 -workers 2 -seed 17 \
		-processes 2 -worker-bin $$tmp/shardworker -csv $$tmp/traced.csv \
		-trace $$tmp/campaign.trace -obs $$tmp/campaign.jsonl >/dev/null; \
	cmp $$tmp/plain.csv $$tmp/traced.csv; \
	$$tmp/obsview -check $$tmp/campaign.trace; \
	test -s $$tmp/campaign.jsonl; \
	echo "obssmoke: traced and untraced distributions are byte-identical; trace is schema-valid"

# Regenerate all four golden reports (end-to-end evaluation, attack
# stage, architecture fingerprinting, topology recovery) after a
# *deliberate* behavior change (review the diff before committing it).
golden:
	$(GO) test -run 'TestGoldenReport|TestAttackGoldenReport|TestArchIDGoldenReport|TestTopoGoldenReport|TestGoldenMonitor' -update .

ci: vet build lint race allocgate benchsmoke fuzzsmoke fabricsmoke batchsmoke streamsmoke obssmoke bench
