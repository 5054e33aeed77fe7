# Local targets mirror .github/workflows/ci.yml one for one, so `make ci`
# reproduces exactly what a PR is gated on.

GO ?= go

.PHONY: all fmt vet build test pins goldens fuzz-smoke examples bench bench-test cover ring-demo loc ci

all: build

fmt: ## fail if any file needs gofmt
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

pins: ## the allocation pins (the serving handlers' 0s and full-stack ceilings, the route envelope's exact count, the simulator's event, grant and per-job pins, a warm replay's bytes per job, the request line and the peer exchange), which skip themselves under -race and so never run in test/cover
	$(GO) test -run 'Alloc' ./...

goldens: ## the full-size simulation goldens (figures and the paper-claims ledger at 270 jobs, the 2,000-job oracle cells, 10^7 Pareto draws and 10^7 closed-form kernel powers against math.Pow), the full 900-cell breakpoint sweep of the budget-frontier option search against SolveCapped and the 3,000-batch shared-budget allocator against brute force, which shrink or skip themselves under -race
	$(GO) test -run 'Golden|PaperClaims|ModelOracle|MatchesPow|AtEveryBreakpoint|BatchSolveMatchesBruteForce' . ./cmd/chronos-figures ./internal/pareto ./internal/optimize ./internal/analysis

fuzz-smoke: ## every internal/hotjson fuzz target for 5 s past its seeds: the codec against encoding/json on inputs the committed corpus does not hold
	@for f in $$($(GO) test -list '^Fuzz' ./internal/hotjson | grep '^Fuzz'); do echo "fuzz $$f"; \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 5s ./internal/hotjson || exit 1; done

examples: ## run every example program end to end: each must exit 0 within the timeout (a compiling example can still fail at runtime)
	@for d in examples/*/; do echo "go run ./$$d"; \
		timeout 120 $(GO) run ./$$d > /dev/null || exit 1; done

bench: ## one-iteration benchmark smoke run (the CI bench-smoke job)
	@$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench.txt 2>&1; \
		rc=$$?; cat bench.txt; exit $$rc

bench-test: ## vet + unit-test the bench/ module against this tree (its own module, so tier-1 never compiles it; no chronosd started)
	cd bench && $(GO) vet ./... && $(GO) test ./...

loc: ## comment-free, blank-free, non-test Go line count per package: serving layer, planner core, simulator substrate, contract and SDK, then their sum, then the knobs: chronosd flags, server.Config fields, SimConfig fields (the /v1 simulation schema), /metrics families, routes (the numbers simplicity PRs quote)
	@count() { cat "$$@" | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l; }; \
	for group in "internal/server internal/hotjson internal/jsonfloat cmd/chronosd" "internal/analysis internal/optimize ." \
		"internal/sim internal/cluster internal/mapreduce internal/speculate internal/replay internal/workload internal/trace internal/metrics internal/pareto cmd/chronos-figures" \
		"api client internal/tenant internal/ring internal/obs internal/plankey"; do total=0; \
		for d in $$group; do \
			n=$$(count $$(ls $$d/*.go | grep -v _test.go)); total=$$((total + n)); \
			[ $$d = . ] && d='root package'; printf '%-20s %6d\n' "$$d" $$n; \
		done; printf '%-20s %6d\n' total $$total; grand=$$((grand + total)); \
	done; printf '%-20s %6d\n' 'four groups' $$grand; \
	printf '%-20s %6d\n' 'chronosd flags' $$(grep -cE '= flag\.[A-Z][A-Za-z0-9]*\(' cmd/chronosd/main.go); \
	printf '%-20s %6d\n' 'Config fields' $$(awk '/^type Config struct/,/^}/' internal/server/config.go | grep -cE '^\s+[A-Z][A-Za-z0-9]*\s+[^ /]'); \
	printf '%-20s %6d\n' 'SimConfig fields' $$(awk '/^type SimConfig struct/,/^}/' simulate.go | grep -cE '^\s+[A-Z][A-Za-z0-9]*\s+[^ /]'); \
	printf '%-20s %6d\n' '/metrics families' $$(grep -c '^# TYPE' internal/server/testdata/metrics.golden); \
	printf '%-20s %6d\n' 'routes' $$(grep -c 's\.route(' internal/server/server.go)

cover: ## -race suite + per-package coverage + the server+tenant gate
	./scripts/coverage.sh

ring-demo: ## 3-replica consistent-hash ring smoke: plan via A, cache hit via B
	./scripts/ring-demo.sh

# cover subsumes test (its single -race run is both gates), so ci does not
# execute the suite twice; pins and goldens rerun only the tests that -race
# skips or shrinks.
ci: fmt vet build cover pins goldens fuzz-smoke examples bench bench-test ring-demo
