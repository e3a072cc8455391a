# paratune build/verification targets. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build lint lint-sarif lint-selftest test race bench bench-smoke trace-smoke db-smoke chaos-smoke fed-smoke fuzz results results-check examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Project-specific static analysis, seven rules: determinism, lock
# discipline, float comparisons, wire-boundary error handling, lock order,
# context flow and typed atomics. A full-tree run also reports
# //paralint:allow directives that suppress nothing or name no rule.
# See DESIGN.md.
lint:
	$(GO) run ./cmd/paralint ./...

# Machine-readable findings for CI code-scanning upload.
lint-sarif:
	$(GO) run ./cmd/paralint -sarif ./... > paralint.sarif || true

# The driver's own regression gate: analyze the committed selftest fixture,
# pin the JSON findings (ordering included) against the golden file, and
# require exit status 3 for its malformed //paralint:lockrank directive.
# Built as a binary because `go run` flattens the child's exit status.
lint-selftest:
	$(GO) build -o "$${TMPDIR:-/tmp}/paralint-selftest" ./cmd/paralint
	"$${TMPDIR:-/tmp}/paralint-selftest" -rules lockorder -json \
	  ./internal/lint/testdata/selftest > selftest-got.json; \
	  test $$? -eq 3
	diff -u internal/lint/testdata/selftest/expect.json selftest-got.json
	rm -f selftest-got.json "$${TMPDIR:-/tmp}/paralint-selftest"

test: lint
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# Quick-scale figure benches + hot-path micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Compile-and-run-once pass over every benchmark (what CI runs).
bench-smoke:
	$(GO) test -bench . -benchtime 1x ./...

# End-to-end event-stream check: two same-seed runs must produce
# byte-identical JSONL traces, and traceanalyze must parse them directly.
trace-smoke:
	$(GO) run ./cmd/paratune -seed 7 -rho 0.3 -budget 200 -trace trace.jsonl
	$(GO) run ./cmd/paratune -seed 7 -rho 0.3 -budget 200 -trace trace2.jsonl
	cmp trace.jsonl trace2.jsonl
	$(GO) run ./cmd/traceanalyze -in trace.jsonl
	rm -f trace.jsonl trace2.jsonl

# Crash-recovery smoke for the measurement database: run with -db, corrupt
# the WAL tail (the artefact of a kill mid-append), reopen — the store must
# truncate the tail and keep the aggregate state byte-identical; compaction
# must preserve that state and leave the WAL the store's one file; and a rerun on the same store must warm-start
# (zero new measurements).
db-smoke:
	rm -rf dbsmoke
	$(GO) run ./cmd/paratune -surface sphere -rho 0.3 -samples 3 -budget 120 -seed 7 -db dbsmoke/store
	$(GO) run ./cmd/measuredb export -format csv dbsmoke/store > dbsmoke/before.csv
	printf '\027\377\000\272\255' >> dbsmoke/store/wal.db
	$(GO) run ./cmd/measuredb export -format csv dbsmoke/store > dbsmoke/after.csv 2> dbsmoke/recovery.log
	grep -q "recovered WAL" dbsmoke/recovery.log
	cmp dbsmoke/before.csv dbsmoke/after.csv
	$(GO) run ./cmd/measuredb compact dbsmoke/store
	test ! -e dbsmoke/store/snapshot.db
	$(GO) run ./cmd/measuredb export -format csv dbsmoke/store > dbsmoke/compacted.csv
	cmp dbsmoke/before.csv dbsmoke/compacted.csv
	$(GO) run ./cmd/paratune -surface sphere -rho 0.3 -samples 3 -budget 120 -seed 7 -db dbsmoke/store | grep -q ", 0 measured"
	rm -rf dbsmoke

# Chaos soak: tune through seeded network faults (delay/drop/dup/truncate/
# reset) and scheduled mid-tuning server kills, race-enabled. Asserts
# deadline-bounded termination, byte-identical same-seed fault plans, and
# converged quality within a bound of the fault-free baseline. SEEDS sets
# how many seeded plans run (CI runs a shorter soak with SEEDS=5).
SEEDS ?= 20
chaos-smoke:
	$(GO) run -race ./cmd/chaosharness -seeds $(SEEDS) -kills 2

# Federation smoke: two harmonyd peers tune in partition, one anti-entropy
# round unions their measurement databases (byte-identical exports, second
# round ships nothing), and a third peer that never measured anything
# warm-starts from live -peers sync to reproduce the partitioned best point
# with zero client measurements and zero db_misses.
fed-smoke:
	bash scripts/fed-smoke.sh

# Brief fuzzing passes over the parsing, projection and space-signature
# boundaries, 10 s per fuzzer. CI's "Fuzz smoke" step runs this target, so
# the list lives here.
fuzz:
	$(GO) test -fuzz FuzzProject -fuzztime 10s ./internal/space/
	$(GO) test -fuzz FuzzParameterNeighbors -fuzztime 10s ./internal/space/
	$(GO) test -fuzz FuzzSpaceSignature -fuzztime 10s ./internal/space/
	$(GO) test -fuzz FuzzDispatch -fuzztime 10s ./internal/harmony/
	$(GO) test -fuzz FuzzTCPFrameDecode -fuzztime 10s ./internal/harmony/
	$(GO) test -fuzz FuzzBinaryFrameDecode -fuzztime 10s ./internal/harmony/
	$(GO) test -fuzz FuzzResponseDecode -fuzztime 10s ./internal/harmony/
	$(GO) test -fuzz FuzzLoadDB -fuzztime 10s ./internal/objective/
	$(GO) test -fuzz FuzzDBEval -fuzztime 10s ./internal/objective/
	$(GO) test -fuzz FuzzWALDecode -fuzztime 10s ./internal/measuredb/
	$(GO) test -fuzz FuzzSyncFrameDecode -fuzztime 10s ./internal/feddb/
	$(GO) test -fuzz FuzzFrame -fuzztime 10s ./internal/frame/
	$(GO) test -fuzz FuzzNewRNGMatchesMathRand -fuzztime 10s ./internal/dist/
	$(GO) test -fuzz FuzzParetoOrderStat -fuzztime 10s ./internal/dist/

# Full-scale regeneration of every paper figure, ablation and extension
# (~11 s on a shared 2-vCPU host), plus the consolidated markdown report.
results:
	$(GO) run ./cmd/expgen -out results -seed 42 -report

# Byte-identity gate for the committed figures: regenerate at full scale into
# a temporary directory, then diff every results/*.csv and results/*.txt, and
# REPORT.md without its Generated timestamp line.
results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/expgen -out "$$tmp" -seed 42 -report; \
	for f in "$$tmp"/*.csv "$$tmp"/*.txt; do \
	  test -f "results/$${f##*/}" || { echo "results-check: results/$${f##*/} is not committed"; exit 1; }; \
	done; \
	for f in results/*.csv results/*.txt; do diff -u "$$f" "$$tmp/$${f##*/}"; done; \
	grep -v '^Generated ' results/REPORT.md > "$$tmp/REPORT.want"; \
	grep -v '^Generated ' "$$tmp/REPORT.md" | diff -u "$$tmp/REPORT.want" -; \
	echo "results-check: results/ is byte-identical"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gs2tuning
	$(GO) run ./examples/heavytail
	$(GO) run ./examples/comparealgos
	$(GO) run ./examples/networktuning
	$(GO) run ./examples/stenciltuning
	$(GO) run ./examples/adaptivek
	$(GO) run ./examples/checkpoint
	$(GO) run ./examples/realtuning
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/chaos

clean:
	rm -f test_output.txt paralint.sarif
