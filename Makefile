GO ?= go

# Microbenchmark suites. `make bench-<suite>` runs the suite's benchmarks and
# exports them through bench/tojson.awk as BENCH_<suite>.json
# ([{"name":..., "ns_per_op":..., "bytes_per_op":..., "allocs_per_op":...}]);
# `make bench` is bench-hotpath (see README "Performance"); the top-level
# BenchmarkSection/<id> benchmarks each run a full experiment section, use
# `make bench-scenarios` for those. The suites are for reading while working
# on a hot path; nothing compares them against a committed baseline — the
# regression gate is the end-to-end ledger, `bash perf/run.sh -compare`.
# Each suite is a -bench regex and its packages:
#   hotpath    event engine and wire codec, the gate for hot-path work.
#   sched      request scheduling in internal/peer.
#   select     tracker reply composition. The baseline/uniform pair shows the
#              strategy indirection is free on the default path: compare
#              BenchmarkSelectUniform with the hand-inlined
#              BenchmarkSelectUniformBaseline, both at 0 allocs/op.
#   telemetry  full-capture vs streaming analysis of one synthetic paper-scale
#              trace. Entries also carry live_heap_bytes — the heap the
#              pipeline retains after a full GC — which is what the streaming
#              telemetry gates on (>= 10x below full capture;
#              TestStreamingTelemetryMemoryFootprint enforces it).
#   fault      the underlay send path with the fault layer idle (every benign
#              run) and with an active link fault; the idle numbers gate the
#              claim that the hooks cost ~nothing without a chaos schedule.
#   cdn        the urgent-miss path with no edges (every pure-P2P run) and
#              with a hybrid edge set (TestCDNIdleHooksZeroAlloc pins 0
#              allocs on both).
SUITES = hotpath sched select telemetry fault cdn
hotpath_bench   = .
hotpath_pkgs    = ./internal/eventsim ./internal/wire
sched_bench     = Scheduler|PickProvider
sched_pkgs      = ./internal/peer
select_bench    = Select
select_pkgs     = ./internal/selection
telemetry_bench = Telemetry
telemetry_pkgs  = ./internal/analysis
fault_bench     = Fault
fault_pkgs      = ./internal/underlay
cdn_bench       = CDNUrgentMiss
cdn_pkgs        = ./internal/peer
BENCHTIME ?= 2s

.PHONY: fast full perf-test fuzz loc bench $(SUITES:%=bench-%) bench-e2e bench-scenarios clean

# Non-blank, non-test Go lines outside perf/: the code size ROADMAP aim 2
# tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perf/*' ! -path './.*' -exec cat {} + | grep -cv '^[[:space:]]*$$'

# Fast lane: static checks plus every -short test under the race detector,
# the pre-commit gate. Scenario-scale tests skip themselves in -short mode,
# but the race detector slows the rest: internal/core alone took 1 917 s on
# 2 vCPUs, above the timeout below.
fast:
	$(GO) vet ./...
	$(GO) test -race -short -timeout 20m ./...

# Full lane: build everything and run the whole suite, including the
# multi-minute scenario tests (tier-1 verify). internal/core alone exceeds
# go test's default 10m timeout on slow single-core machines, so raise it.
full: perf-test
	$(GO) build ./...
	$(GO) test -timeout 30m ./...

# The performance ledger under perf/ is its own module (BENCHMARK.json runs
# it from source), so `./...` above never builds it: this is the step that
# notices an internal API change breaking the benchmark.
perf-test:
	cd perf && $(GO) vet ./... && $(GO) test ./...

# End-to-end ledger: the four pinned BENCHMARK.json workloads, one child
# process each (about two minutes), written to perf/out/current.json. Compare
# two such files with `bash perf/run.sh -compare a.json b.json`.
bench-e2e:
	bash perf/run.sh -workload all -out perf/out/current.json

# Short coverage-guided pass over every fuzz target, FUZZTIME each: the wire
# codec (seeded from the committed golden-trace corpus in
# internal/wire/testdata/fuzz), the selection spec parser, the trace-file
# reader and the fault-schedule validator (seeded from every chaos preset).
# `go test -fuzz` takes one target in one package per run. CI runs this on
# every push; longer local sessions just raise FUZZTIME.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/selection/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz '^FuzzValidate$$' -fuzztime $(FUZZTIME) ./internal/fault/

bench: bench-hotpath

$(SUITES:%=bench-%): bench-%:
	$(GO) test -run '^$$' -bench '$($*_bench)' -benchmem -benchtime $(BENCHTIME) $($*_pkgs) | tee bench_$*.txt
	awk -f bench/tojson.awk bench_$*.txt > BENCH_$*.json
	@echo "wrote BENCH_$*.json"

# Scenario-scale benchmarks: every row of the experiment table
# (BenchmarkSection/<id>) plus the BitTorrent baseline swarm.
bench-scenarios:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x .

clean:
	rm -f $(foreach s,$(SUITES),bench_$(s).txt BENCH_$(s).json) core.test
