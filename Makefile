GO ?= go

.PHONY: build test race vet fmt staticcheck check bench bench-core bench-diff bench-smoke gobench-smoke demo serve-smoke chaos perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would reformat any tracked Go file. The file
# list comes from git, so build output such as .bench_build/ is never
# scanned.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck runs honest-to-goodness staticcheck when the binary is
# on PATH and is a no-op otherwise, so `make check` works on machines
# without it installed.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# serve-smoke boots clio serve, drives a create/corr/walk/illustrate
# round-trip over HTTP, kills the server with SIGKILL mid-session,
# verifies the journal replays it on restart, and checks graceful
# shutdown.
serve-smoke:
	sh scripts/serve_smoke.sh

# chaos runs the deterministic fault-injection suite under the race
# detector with a pinned seed, so any failure replays exactly.
chaos:
	CLIO_CHAOS_SEED=1 $(GO) test -race -run 'Chaos|Journal|Budget|Mode|Prob' ./internal/fault ./internal/fd ./internal/workspace ./internal/serve ./internal/csvio ./internal/discovery ./internal/spill ./internal/algebra ./internal/budget

# perfbench-check vets and tests the end-to-end benchmark module. It
# has its own go.mod, so ./... above skips it; running it here makes
# drift in the fd and relation APIs it calls fail the gate instead of
# the next benchmark run. The environment is perfbench/run.sh's offline
# setting.
PERFBENCH_ENV = GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test ./...

# gobench-smoke runs every Go benchmark function (bench_test.go and
# the internal packages' Benchmark*) exactly once, so they keep
# compiling and running; timings are not checked.
gobench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# check is the tier-1 verification gate: vet, gofmt, staticcheck (when
# installed), build, tests, race tests, the chaos suite, the serve
# smoke test, a one-iteration pass over the execution-core benchmark
# workloads and over the Go benchmark functions, and the end-to-end
# benchmark module's own vet and tests.
check: vet fmt staticcheck build test race chaos serve-smoke bench-smoke gobench-smoke perfbench-check

bench:
	$(GO) run ./cmd/cliobench -quick

# bench-core measures the streaming execution core (E10: D(G), join,
# minimum-union and distinct micro-workloads) and writes the numbers
# quoted in the PR to BENCH_core.json.
bench-core:
	$(GO) run ./cmd/cliobench -exp E10 -json BENCH_core.json

# bench-diff is the regression gate: a fresh full-size E10 run
# compared cell-by-cell against the committed BENCH_core.json medians,
# failing on any >25% regression. Run it before committing a core
# change; refresh the baseline with bench-core when a change is
# intentional.
bench-diff:
	$(GO) run ./cmd/cliobench -exp E10 -diff BENCH_core.json

# bench-smoke runs each E10 workload exactly once — a fast liveness
# check that the benchmark harness itself still works — and diffs the
# run against the committed baseline in structural mode (every
# baseline cell must still exist; timings are not enforced at smoke
# sizes).
bench-smoke:
	$(GO) run ./cmd/cliobench -exp E10 -quick -once -diff BENCH_core.json

demo:
	$(GO) run ./cmd/cliodemo
