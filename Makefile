GO ?= go

.PHONY: build test check smoke corpusdrill clusterdrill overloaddrill shepherddrill fuzz bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate (scripts/check.sh): gofmt, build, vet, the
# benchmark module's vet and tests, the five real-binary drills (serve
# smoke, corpus kill→resume, cluster chaos, overload control, continual
# learning), a fuzz smoke, and the full test suite under the race
# detector (worker pools, the checkpointer and the serving tier are all
# concurrency-sensitive).
# SHORT=1 shortens the drills and skips the long experiment
# reproductions.
check:
	./scripts/check.sh

# smoke runs only the end-to-end inference-service smoke test: train a
# tiny model, boot cmd/serve on a free port, predict over HTTP, check
# caching, hot reload and graceful drain.
smoke:
	$(GO) run ./scripts/servesmoke

# corpusdrill runs only the corpus crash drill, once per gendata source
# (synthetic generator, MatrixMarket tree): SIGKILL a store build
# mid-flight, resume it to a byte-identical store (through an injected
# full disk), refuse a resume with changed flags, prove an injected
# poison matrix is quarantined rather than fatal, then corrupt shards
# and require training and the held-out evaluation to complete on
# salvage (quarantine + salvage.json) instead of aborting.
corpusdrill:
	$(GO) run ./scripts/corpusdrill

# clusterdrill runs only the cluster chaos drill: boot a router in
# front of three serve replicas, replay heavy-tailed load, SIGKILL the
# shard-owning replica mid-run, and require >= 99% success plus router
# reconvergence once the victim restarts.
clusterdrill:
	$(GO) run ./scripts/clusterdrill

# overloaddrill runs only the overload-control drill: router + two
# SLO-armed replicas behind a retry budget, an open-loop Poisson surge
# at 5x measured capacity, and hard assertions that goodput holds (no
# congestion collapse), overload answers are sheds rather than errors,
# brownout engages under the surge and the tier recovers within 10s of
# the load dropping.
overloaddrill:
	$(GO) run ./scripts/overloaddrill

# shepherddrill runs only the continual-learning drill: serve + shepherd
# on real binaries, shifted traffic trips the drift detector, a
# top-evolvement retrain shadows live traffic and is promoted through
# the probe-validated hot reload, and a fault-injected corrupt candidate
# is rejected while the live model keeps serving.
shepherddrill:
	$(GO) run ./scripts/shepherddrill

# fuzz runs the native fuzz targets over the hardened ingestion
# surfaces (MatrixMarket parsing, the predict request path, the JSON
# body scanner against its encoding/json reference, opening and
# salvaging a corpus store) and the differential one (the statistics
# sweep against its map-based reference). Budget per target is FUZZTIME
# (default 30s); CI runs a shorter smoke via scripts/check.sh.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadMatrixMarket$$' -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzComputeStats$$' -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -run='^$$' -fuzz='^FuzzPredictJSON$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeJSONDifferential$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzLoadDataset$$' -fuzztime=$(FUZZTIME) ./internal/dataset
	$(GO) test -run='^$$' -fuzz='^FuzzSalvageShard$$' -fuzztime=$(FUZZTIME) ./internal/dataset

# bench runs every benchmark in the module (the per-paper-table harness
# at the root plus the per-package hot-path benchmarks) and converts
# the output into BENCH.json for artifact upload and regression gating.
# benchgate compares BENCH.json against the committed fixed-seed
# baseline and fails on >25% ns/op regressions (and allocs/op
# regressions — with a baseline of 0 gated exactly) on guarded hot
# paths. The guarded hot paths get extra -count=3 samples; benchjson
# keeps the fastest run per benchmark, and min-of-N is what makes a
# 25% gate threshold hold on noisy shared runners. -benchmem is
# mandatory on the guarded run: the alloc columns are part of the gate.
BENCHTIME ?= 200ms
GUARDED_PKGS = ./internal/spmv ./internal/tensor ./internal/represent ./internal/serve ./internal/dataset ./internal/nn ./internal/sparse ./internal/selector ./internal/machine ./internal/dtree
GUARDED_BENCH = 'KernelMul|MatMul|Normalize|Predict|Decode|Fingerprint|ShardIter|Infer32|TrainStream|ComputeStats|Convert|Label'
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -benchmem -run=^$$ ./... > BENCH.txt || { cat BENCH.txt; exit 1; }
	$(GO) test -bench=$(GUARDED_BENCH) -benchtime=$(BENCHTIME) -benchmem -count=3 -run=^$$ $(GUARDED_PKGS) >> BENCH.txt || { cat BENCH.txt; exit 1; }
	cat BENCH.txt
	$(GO) run ./scripts/benchjson -o BENCH.json < BENCH.txt

# bench-guarded runs only the guarded hot-path benchmarks — the set
# benchgate actually gates — with -benchmem at -count=3 (benchjson
# keeps the fastest run and the minimum alloc columns). This is what
# the CI perf job runs: minutes instead of the full harness's hour,
# tight enough to sit on every pull request.
.PHONY: bench-guarded
bench-guarded:
	$(GO) test -bench=$(GUARDED_BENCH) -benchtime=$(BENCHTIME) -benchmem -count=3 -run=^$$ $(GUARDED_PKGS) > BENCH.txt || { cat BENCH.txt; exit 1; }
	cat BENCH.txt
	$(GO) run ./scripts/benchjson -o BENCH.json < BENCH.txt

.PHONY: benchgate
benchgate:
	$(GO) run ./scripts/benchgate -baseline BENCH_baseline.json -current BENCH.json
