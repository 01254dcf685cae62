#!/usr/bin/env bash
# CI gate: build everything, vet, run the serve smoke test (an
# end-to-end train→serve→predict pass over the real binaries), then run
# the full test suite with the race detector. SHORT=1 narrows the race
# run to the internal packages (skipping the slow experiment
# reproductions at the repo root) and runs internal/experiments with
# -short, which its long reproductions honour.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting gate: gofmt is the one true style; a non-empty file list
# fails the build with the offending paths.
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...

# The end-to-end harness is a module of its own (benchmark/go.mod), so
# ./... above never reaches it; it calls internal/... by name, and a
# signature change there must fail here, not in the next benchmark run.
go vet -C benchmark .
go test -C benchmark .

# Static analysis: staticcheck (bug-pattern lints beyond vet) and
# govulncheck (known-vulnerable call paths in the dependency graph),
# both version-pinned so CI cannot drift onto a lint set nobody
# reviewed. SHORT=1 skips — the short gate is the fast merge loop and
# these tools dominate its runtime on a cold cache. A missing tool is
# installed into GOPATH/bin when the network allows; an offline
# checkout logs a warning and continues, because a sandbox without
# egress must still be able to run the gate.
STATICCHECK_VERSION=v0.6.1
GOVULNCHECK_VERSION=v1.1.4
if [[ "${SHORT:-0}" != "1" ]]; then
    export PATH="$(go env GOPATH)/bin:$PATH"
    if ! command -v staticcheck >/dev/null 2>&1; then
        go install "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" || true
    fi
    if command -v staticcheck >/dev/null 2>&1; then
        staticcheck ./...
    else
        echo "warning: staticcheck unavailable (offline?), skipping" >&2
    fi
    if ! command -v govulncheck >/dev/null 2>&1; then
        go install "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}" || true
    fi
    if command -v govulncheck >/dev/null 2>&1; then
        govulncheck ./...
    else
        echo "warning: govulncheck unavailable (offline?), skipping" >&2
    fi
fi

go run ./scripts/servesmoke

# Corpus crash drill, once per gendata source (synthetic generator,
# MatrixMarket tree): SIGKILL a real store build mid-flight, resume it
# — through an injected full disk — to a byte-identical store, refuse a
# resume with changed flags, quarantine injected poison matrices, then
# corrupt shards and require train + experiments to complete on salvage
# (quarantine + salvage.json) instead of aborting. See
# scripts/corpusdrill.
if [[ "${SHORT:-0}" == "1" ]]; then
    go run ./scripts/corpusdrill -short
else
    go run ./scripts/corpusdrill
fi

# Cluster chaos drill: router + three replicas + heavy-tailed load,
# SIGKILL one replica mid-run, require >= 99% success and router
# reconvergence after the victim restarts. See scripts/clusterdrill.
if [[ "${SHORT:-0}" == "1" ]]; then
    go run ./scripts/clusterdrill -short
else
    go run ./scripts/clusterdrill
fi

# Overload-control drill: router + two SLO-armed replicas, open-loop
# Poisson surge at 5x measured capacity; goodput must hold >= 70% of
# capacity with zero 5xx, brownout must engage under the surge and
# disengage within 10s of the load dropping. See scripts/overloaddrill.
if [[ "${SHORT:-0}" == "1" ]]; then
    go run ./scripts/overloaddrill -short
else
    go run ./scripts/overloaddrill
fi

# Continual-learning drill: serve + shepherd on real binaries, shifted
# traffic must trip the drift detector, a top-evolvement retrain must
# shadow and promote through the probe-validated hot reload, and a
# fault-injected corrupt candidate must be rejected while the live
# model keeps serving. See scripts/shepherddrill.
if [[ "${SHORT:-0}" == "1" ]]; then
    go run ./scripts/shepherddrill -short
else
    go run ./scripts/shepherddrill
fi

# Fuzz smoke: a short native-fuzzing budget per hardened ingestion
# surface, plus the statistics sweep against its map-based reference. A
# clean run means no panic, no typed-error-taxonomy violation and no
# Stats field that differs found within the budget; regressions crash
# the script.
go test -run='^$' -fuzz='^FuzzReadMatrixMarket$' -fuzztime=10s ./internal/sparse
go test -run='^$' -fuzz='^FuzzComputeStats$' -fuzztime=10s ./internal/sparse
go test -run='^$' -fuzz='^FuzzPredictJSON$' -fuzztime=10s ./internal/serve
go test -run='^$' -fuzz='^FuzzDecodeJSONDifferential$' -fuzztime=10s ./internal/serve
go test -run='^$' -fuzz='^FuzzLoadDataset$' -fuzztime=10s ./internal/dataset
go test -run='^$' -fuzz='^FuzzSalvageShard$' -fuzztime=10s ./internal/dataset

# The experiment reproductions take ~2 minutes without the race
# detector and several times that with it; the default 10m per-package
# timeout is too tight.
if [[ "${SHORT:-0}" == "1" ]]; then
    go test -race -timeout 45m $(go list ./internal/... | grep -v '/internal/experiments$')
    go test -race -short -timeout 45m ./internal/experiments
else
    go test -race -timeout 45m ./...
fi
