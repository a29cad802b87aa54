GO ?= go

.PHONY: build fmt vet test test-race loc bench-module bench-smoke bench-json bench-calibrate bench-compare fuzz-seed smoke index-smoke cache-smoke check clean

build:
	$(GO) build ./...

# Fails when gofmt would change any file (generated benchmark inputs under
# bench/.out aside).
fmt:
	@out=$$(gofmt -l . | grep -v '^bench/\.out/'); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Non-test, non-bench/ Go line counts for the groups ROADMAP tracks, so a
# "deletes lines" claim in a PR comes from one command run before and after.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }; \
	echo "calql + internal/query + internal/pquery: $$(count calql internal/query internal/pquery)"; \
	echo "observability (telemetry trace obs): $$(count internal/telemetry internal/trace internal/obs)"; \
	echo "total: $$(count . -path ./bench -prune -o)"

# bench/ is a module of its own that `go build ./...` and `go test ./...`
# skip, yet it calls internal/... signatures directly: vet it and run its
# tiny-scale smoke test (< 10 s) so a signature change that breaks the
# benchmark fails here rather than in the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One iteration of every benchmark — catches bit-rot in the bench
# harness without paying for real measurement runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The micro-benchmarks BENCH_query.json tracks: the query side, and from
# the root package the paper's own measurements next to it — Table I (one
# on-line snapshot under schemes A, B and C) for the runtime side, Figure 4
# (the parallel query at 1 to 64 ranks) and the fan-in ablation for the
# cross-process reduction.
QUERY_BENCH = QueryFilesSharded|WhereCompiled|WhereEvalCondition|SortRows|BenchmarkMerge|IndexedScan|CachedQuery|TableIScheme|Figure4Ranks|AblationReduceFanin
QUERY_PKGS = ./calql/ ./internal/query/ ./internal/core/ .

# Measure the observability overhead path — the span tracer, enabled and
# disabled — and record the results as machine-readable JSON; the
# disabled path must report 0 allocs/op.
bench-json:
	@if [ -f BENCH_trace.json ]; then cp BENCH_trace.json BENCH_trace.prev.json; fi
	$(GO) test -run '^$$' -bench 'BenchmarkTraceOverhead' -benchmem ./internal/trace/ \
		| $(GO) run ./cmd/benchjson > BENCH_trace.json
	@cat BENCH_trace.json
	@if [ -f BENCH_query.json ]; then cp BENCH_query.json BENCH_query.prev.json; fi
	$(GO) test -run '^$$' -bench '$(QUERY_BENCH)' -benchmem $(QUERY_PKGS) \
		| $(GO) run ./cmd/benchjson > BENCH_query.json
	@cat BENCH_query.json

# Measure per-benchmark run-to-run noise: repeat the bench-json suites
# CALIBRATE_RUNS times on an otherwise-idle host and record each
# benchmark's observed jitter (max-min)/min as its noise floor in
# BENCH_noise.json. bench-compare picks the floor up automatically, so a
# benchmark is only flagged when it regresses beyond both the 15%
# threshold and its own measured jitter (see docs/OBSERVABILITY.md).
CALIBRATE_RUNS ?= 3
bench-calibrate:
	@rm -f BENCH_run.*.json
	@for i in $$(seq $(CALIBRATE_RUNS)); do \
		echo "calibration run $$i/$(CALIBRATE_RUNS)"; \
		{ $(GO) test -run '^$$' -bench 'BenchmarkTraceOverhead' -benchmem ./internal/trace/; \
		  $(GO) test -run '^$$' -bench '$(QUERY_BENCH)' -benchmem $(QUERY_PKGS); } \
			| $(GO) run ./cmd/benchjson > BENCH_run.$$i.json || exit 1; \
	done
	$(GO) run ./cmd/benchjson -calibrate BENCH_noise.json BENCH_run.*.json
	@rm -f BENCH_run.*.json

# Diff the BENCH JSON snapshots bench-json took against the fresh ones
# and fail on >15% regression in ns/op or allocs/op. Gates both the query
# benchmarks and the tracing/telemetry overhead benchmarks (one missing
# trace snapshot pair — e.g. the first run after this gate was added — is
# skipped rather than failed). When bench-calibrate has produced
# BENCH_noise.json, per-benchmark noise floors widen the ns/op threshold
# and uniform host drift is rescaled away.
OLD ?= BENCH_query.prev.json
NEW ?= BENCH_query.json
TRACE_OLD ?= BENCH_trace.prev.json
TRACE_NEW ?= BENCH_trace.json
bench-compare:
	@NOISE=""; if [ -f BENCH_noise.json ]; then NOISE="-noise BENCH_noise.json"; fi; \
	if [ -f $(TRACE_OLD) ] && [ -f $(TRACE_NEW) ]; then \
		$(GO) run ./cmd/benchjson -compare $$NOISE $(OLD) $(NEW) $(TRACE_OLD) $(TRACE_NEW); \
	else \
		echo "bench-compare: no $(TRACE_OLD) pair yet, gating query benchmarks only"; \
		$(GO) run ./cmd/benchjson -compare $$NOISE $(OLD) $(NEW); \
	fi

# Run the fuzz targets over their seed corpora only (no fuzzing time);
# regressions on checked-in seeds fail fast.
fuzz-seed:
	$(GO) test -run Fuzz ./internal/calql ./internal/calformat ./internal/core ./internal/query

# Index smoke test: build sidecar block indexes over a corpus and check
# that every execution mode renders byte-identical output with pruning
# enabled vs a full scan, and that EXPLAIN surfaces the skip statistics.
index-smoke:
	$(GO) test -run 'TestIndexSmoke' -count=1 ./calql/

# Aggregate-cache smoke test: over one shared cache directory, cold,
# warm, sharded, and emulated-MPI execution must render byte-identical
# output to an uncached run, appends must re-aggregate only the tail,
# and corrupt entries must fall back to full scans silently.
cache-smoke:
	$(GO) test -run 'TestCache' -count=1 ./calql/

# Ops-surface smoke test: start ServeDebug, run a sharded query, scrape
# /debug/metrics, /debug/queries and /debug/log over HTTP, and validate
# the bodies with the same parsers cali-top uses.
smoke:
	$(GO) test -run TestEndpointSmoke -count=1 .

check: build fmt vet test bench-module fuzz-seed smoke index-smoke cache-smoke

clean:
	$(GO) clean ./...
	rm -rf bin/
