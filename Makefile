GO ?= go
FUZZTIME ?= 10s
RECOVERY_TRIALS ?= 512

.PHONY: all build test race vet fmtcheck errcheck loc fuzz bench benchquick perfbench-check serve-smoke dispatch-smoke yield-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmtcheck:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# errcheck forbids discarded error / ok returns (`_ =`, `x, _ :=`) in
# the packages where a swallowed failure silently corrupts a recovery
# decision, a campaign aggregate, or an ops response. Tests are exempt.
errcheck:
	@out="$$(grep -rnE '(^|[^[:alnum:]_])_ =|, _ =|, _ :=' \
		--include='*.go' --exclude='*_test.go' \
		internal/recovery internal/sim internal/campaign internal/obs \
		internal/pipeline internal/pcache internal/server internal/dispatch \
		internal/faultsim || true)"; \
	if [ -n "$$out" ]; then \
		echo "ignored error returns (handle or propagate):"; echo "$$out"; exit 1; \
	fi

# loc prints the non-test Go line count outside perfbench/ (the
# benchmark module), the size figure the subtraction work tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

# fuzz smoke-runs every native fuzz target for FUZZTIME each (go only
# accepts one -fuzz pattern per invocation). Seed corpora live in the
# packages' testdata/fuzz directories and also replay under plain
# `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanModule$$' -fuzztime $(FUZZTIME) ./internal/reconfig/
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime $(FUZZTIME) ./internal/reconfig/
	$(GO) test -run '^$$' -fuzz '^FuzzMiner$$' -fuzztime $(FUZZTIME) ./internal/emptyrect/
	$(GO) test -run '^$$' -fuzz '^FuzzFTI$$' -fuzztime $(FUZZTIME) ./internal/fti/
	$(GO) test -run '^$$' -fuzz '^FuzzIncremental$$' -fuzztime $(FUZZTIME) ./internal/fti/
	$(GO) test -run '^$$' -fuzz '^FuzzSite$$' -fuzztime $(FUZZTIME) ./internal/fti/
	$(GO) test -run '^$$' -fuzz '^FuzzRowWords$$' -fuzztime $(FUZZTIME) ./internal/grid/
	$(GO) test -run '^$$' -fuzz '^FuzzLadder$$' -fuzztime $(FUZZTIME) ./internal/recovery/
	$(GO) test -run '^$$' -fuzz '^FuzzChunkMerge$$' -fuzztime $(FUZZTIME) ./internal/campaign/
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/campaign/
	$(GO) test -run '^$$' -fuzz '^FuzzDefectMap$$' -fuzztime $(FUZZTIME) ./internal/defect/
	$(GO) test -run '^$$' -fuzz '^FuzzStateMoves$$' -fuzztime $(FUZZTIME) ./internal/place/
	$(GO) test -run '^$$' -fuzz '^FuzzRouteTree$$' -fuzztime $(FUZZTIME) ./internal/router/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalPlacement$$' -fuzztime $(FUZZTIME) ./internal/format/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalSchedule$$' -fuzztime $(FUZZTIME) ./internal/format/
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime $(FUZZTIME) ./internal/pcache/

# bench measures the annealing inner loop (clone-and-recompute vs the
# incremental move kernel), whole stage-2 runs per proposal
# (BenchmarkLTSARun, ns/move, which includes the moves rejected on
# their cost bound), whole stage-1 runs on the 4×4 in-vitro assay per
# proposal (BenchmarkAreaRun, ns/move), one fault-free ladder run of
# the chip simulator on the assay-campaign chip (BenchmarkSimRun,
# recorded as sim_run_ns), one end-to-end fault-tolerant
# PCR placement, and the recovery ladder's completion gain: the same
# RECOVERY_TRIALS-trial seeded single-fault assay campaign under
# L1-only recovery and under the full ladder (benchreport refuses the
# report unless the ladder strictly improves completion with zero
# errored trials). The yieldsweep experiment runs the seeded
# 512-trial clustered-defect yield campaign at spare budgets 0, 2 and
# 4 (benchreport refuses the report unless the yield-vs-area curve
# has at least three points with strictly increasing area and the
# max-spares yield is no worse than the spare-free one). -prev gates
# the fresh report against the committed one: a stage-2 ns/op
# regression beyond timer noise, any fig8 FTI/area regression, or a
# yield drop at any spare budget at the pinned defect density refuses
# the report. Assembles BENCH_place.json at the repo root. Fault
# campaigns and server load are timed end to end by perfbench/.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkStage|BenchmarkActiveDuring' \
		-benchtime 200000x -benchmem ./internal/core/ ./internal/place/ \
		| tee bench_go.out
	$(GO) test -run '^$$' -bench '^BenchmarkLTSARun$$' -benchtime 5x -benchmem \
		./internal/core/ | tee -a bench_go.out
	$(GO) test -run '^$$' -bench '^BenchmarkAreaRun$$' -benchtime 3x -benchmem \
		./internal/core/ | tee -a bench_go.out
	$(GO) test -run '^$$' -bench '^BenchmarkSimRun$$' -benchtime 2000x -benchmem \
		./internal/sim/ | tee -a bench_go.out
	$(GO) run ./cmd/dmfb-bench -exp fig8 -json bench_exp.json
	$(GO) run ./cmd/dmfb-campaign -mode assay -k 1 -recovery l1 \
		-trials $(RECOVERY_TRIALS) -seed 5 -quiet -json bench_assay_l1.json
	$(GO) run ./cmd/dmfb-campaign -mode assay -k 1 -recovery ladder \
		-trials $(RECOVERY_TRIALS) -seed 5 -quiet -json bench_assay_ladder.json
	$(GO) run ./cmd/dmfb-bench -exp yieldsweep -json bench_yield.json
	$(GO) run ./tools/benchreport -go bench_go.out -exp bench_exp.json \
		-assay-l1 bench_assay_l1.json -assay-ladder bench_assay_ladder.json \
		-yield bench_yield.json \
		-prev BENCH_place.json \
		-out BENCH_place.json
	rm -f bench_go.out bench_exp.json bench_assay_l1.json \
		bench_assay_ladder.json bench_yield.json

benchquick:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...

# perfbench-check vets and tests the benchmark module (perfbench/, a
# separate Go module that imports the internal packages), so a change
# that breaks the benchmark fails CI even when the root tests pass.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# serve-smoke boots the real dmfb-server binary on a free port,
# compiles the same assay twice over HTTP and asserts the second
# response is a byte-identical cache hit, then SIGTERMs it and expects
# a graceful drain. See tools/serve_smoke.sh.
serve-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/dmfb-server ./cmd/dmfb-server && \
	sh tools/serve_smoke.sh $$tmp/dmfb-server; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# dispatch-smoke boots the real distributed campaign service — a
# dmfb-dispatch dispatcher plus two dmfb-simd workers — submits the
# seeded 512-trial assay campaign and byte-compares the fleet's merged
# summary against the single-process dmfb-campaign engine. See
# tools/dispatch_smoke.sh.
dispatch-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/dmfb-dispatch ./cmd/dmfb-dispatch && \
	$(GO) build -o $$tmp/dmfb-simd ./cmd/dmfb-simd && \
	$(GO) build -o $$tmp/dmfb-campaign ./cmd/dmfb-campaign && \
	sh tools/dispatch_smoke.sh $$tmp; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# yield-smoke runs a small clustered-defect yield campaign with a
# 2-line spare budget at 1 and 4 workers and byte-compares the
# deterministic summaries, then exercises the design-time
# local-reconfiguration (-ladder) path. Fast enough for CI.
yield-smoke:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/dmfb-campaign ./cmd/dmfb-campaign && \
	$$tmp/dmfb-campaign -mode yield -defect-model clustered -defect-prob 0.03 \
		-spares 2 -trials 128 -seed 11 -workers 1 -quiet -summary $$tmp/w1.json && \
	$$tmp/dmfb-campaign -mode yield -defect-model clustered -defect-prob 0.03 \
		-spares 2 -trials 128 -seed 11 -workers 4 -quiet -summary $$tmp/w4.json && \
	cmp $$tmp/w1.json $$tmp/w4.json && \
	$$tmp/dmfb-campaign -mode yield -defect-model clustered -defect-prob 0.03 \
		-ladder -trials 16 -seed 11 -quiet && \
	echo "yield-smoke: ok (clustered summaries byte-identical at 1 and 4 workers)"; \
	rc=$$?; rm -rf $$tmp; exit $$rc

ci: vet build test race fmtcheck errcheck perfbench-check

clean:
	$(GO) clean ./...
