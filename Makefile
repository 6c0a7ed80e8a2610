# The repository is a two-module workspace (go.work): the stdlib-only
# library at the root and the lint suite under tools/lint. `go build
# ./...` from the root does not cross the nested module boundary, so the
# targets below spell both out.

.PHONY: all build test race lint lint-one fuzz-smoke perfbench-smoke netloc

all: build test lint

build:
	go build ./...
	cd tools/lint && go build ./...

test:
	go test ./...
	cd tools/lint && go test ./...

race:
	go test -race ./...
	cd tools/lint && go test -race ./...

lint:
	./scripts/lint.sh

# lint-one exercises a single jsonskilint analyzer: its fixture tests
# first, then the pass alone over the whole tree. Usage:
#
#   make lint-one PASS=poolpair
lint-one:
	@test -n "$(PASS)" || { echo "usage: make lint-one PASS=<analyzer>" >&2; exit 2; }
	cd tools/lint && go test ./passes/$(PASS)/...
	go run ./tools/lint/cmd/jsonskilint -run $(PASS) ./...

# fuzz-smoke mirrors the CI fuzz-smoke job: a short budget per native
# fuzz target, enough to replay the seed corpus and catch shallow
# regressions locally. Override with FUZZTIME=60s for longer runs.
FUZZTIME ?= 10s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzValidate$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzCompileJSONPath$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzOnDemandDifferential$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzStoreRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/store
	go test -run '^$$' -fuzz '^FuzzKernels$$' -fuzztime $(FUZZTIME) ./internal/bits

# perfbench-smoke mirrors the CI perfbench-smoke job. perfbench is its
# own module outside go.work (it pins the library with a replace), so
# neither `build` nor `test` compiles it; this vets it and runs its
# short tests, catching a public method the benchmark calls that was
# renamed or deleted.
perfbench-smoke:
	cd perfbench && GOWORK=off go vet . && GOWORK=off go test -short -count 1 .

# netloc reports added, removed and net non-test Go lines against a base
# revision, for the root module and tools/lint separately. Usage:
#
#   make netloc BASE=main
netloc:
	@test -n "$(BASE)" || { echo "usage: make netloc BASE=<rev>" >&2; exit 2; }
	./scripts/netloc.sh $(BASE)
