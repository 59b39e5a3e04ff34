# Convenience targets for the Mermaid workbench reproduction.

.PHONY: all build vet test bench bench-pdes bench-scale experiments examples cover check fmt apicheck api

all: build vet test

# Everything CI runs: formatting, vet, build, the full test suite under
# the race detector, and the exported-API guard.
check: fmt vet build apicheck
	go test -race ./...

# Fail when the exported API surface of internal/... drifts from the
# checked-in golden. After an intentional API change, regenerate with
# `make api` and commit API.txt alongside the change.
apicheck:
	go run ./cmd/apidiff

api:
	go run ./cmd/apidiff -write

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Regenerate the paper's evaluation tables (EXPERIMENTS.md).
experiments:
	go run ./cmd/mermaid -experiment all

# Kernel micro-benchmarks plus the end-to-end slowdown benchmarks and the
# overhead of the bottleneck engine (BenchmarkAnalyzerOff vs
# BenchmarkAnalyzerOn), six repetitions each so medians are stable.
bench:
	go test -run '^$$' -bench . -benchmem -count=6 ./internal/pearl
	go test -run '^$$' -bench Slowdown -benchmem -count=6 .
	go test -run '^$$' -bench Analyzer -benchmem -count=6 ./internal/analysis

# Parallel-engine benchmark: the single-kernel fabric against the
# conservative parallel engine at 1 and 4 shards on a 64-node task-level
# T805 grid (BenchmarkShardedT805).
bench-pdes:
	go test -run '^$$' -bench ShardedT805 -benchmem -count=6 .

# Million-node scale benchmarks: per-hop cost of the purely algorithmic
# routing on 1M-node hierarchical topologies (BenchmarkScaleRouting) and
# the network fabric's host time on growing task-level machines
# (BenchmarkScaleEngine).
bench-scale:
	go test -run '^$$' -bench ScaleRouting -benchmem -count=6 ./internal/topology
	go test -run '^$$' -bench ScaleEngine -benchmem -count=6 ./internal/machine

examples:
	go run ./examples/quickstart
	go run ./examples/cachestudy
	go run ./examples/topostudy
	go run ./examples/hybridcluster
	go run ./examples/dsmstencil

cover:
	go test -cover ./internal/...
