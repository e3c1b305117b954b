# Single entry points for CI and local development.
#
#   make test         tier-1 test suite (the PR gate); prints the 20
#                     slowest tests, so every CI log names them
#   make test-fast    unit subset (index/core/sqlengine/graph/warehouse):
#                     seconds, for tight edit loops
#   make test-stress  the stress-marked overload/chaos serving tests
#                     alone (fault storms); bounded by design, suitable
#                     for a CI job with a hard timeout
#   make ledger       the perf ledger (BENCHMARK.json), the one yardstick
#                     for engine and serving speed: four workloads,
#                     3 untraced runs + 1 traced run each, golden-checked
#                     answers, ~7 min; prints every end-to-end and
#                     per-layer metric and writes
#                     benchmarks/ledger/out/result.json (compare two of
#                     those with benchmarks/ledger/compare.py)
#   make ledger-smoke the same command at ~1/100 size (seconds): proves
#                     the ledger still runs and every answer still
#                     matches its golden digest; its timings mean nothing
#   make ledger-pairs PARENT=<rev> WORKLOAD="<name> [<name> ...]" [PAIRS=10] [FIRST_SEED=1] [LAYER="<metric> ..."]
#                     the comparison a perf claim rests on: PAIRS
#                     alternating full-size runs of each named ledger
#                     workload from <rev> (unpacked once under TMPDIR)
#                     and from this checkout, then one table per
#                     workload: per end-to-end metric both medians,
#                     quartiles, change/parent and pairs won; with
#                     LAYER, one traced run per side after the pairs
#                     and the named per-layer metrics side by side
#                     (tools/ledger_pairs.py; ~75 s per pair)
#   make coverage     tier-1 suite under pytest-cov (CI gate: >=85% on
#                     src/repro, writes coverage.xml)
#   make lint         bytecode-compile every source tree (import/syntax gate)
#   make examples     run every examples/*.py script end to end (~3 s;
#                     their output is discarded, a failing script fails)
#   make bench-paper  the paper-table benches (Tables 1, 3, 4, 5) as tests:
#                     their assertions on the paper's figures (Table 3's
#                     precision / recall per query, ...) gate; timing
#                     fixtures are disabled (~15 s)
#   make loc PARENT=<rev>
#                     lines added and removed since <rev> (working tree
#                     against it): one `git diff --numstat` row per
#                     touched file under src/ and tests/, then the
#                     totals and the net change of each
#   make check        lint + test + examples + bench-paper + test-stress +
#                     ledger-smoke: the same steps, in the same order, as
#                     the CI merge gate

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-stress ledger ledger-smoke ledger-pairs coverage \
	lint examples bench-paper loc check

test:
	$(PYTHON) -m pytest -x -q --durations=20

test-fast:
	$(PYTHON) -m pytest -x -q tests/index tests/core tests/sqlengine \
		tests/graph tests/warehouse

test-stress:
	$(PYTHON) -m pytest -q -m stress tests

ledger:
	$(PYTHON) benchmarks/ledger/run.py

ledger-smoke:
	$(PYTHON) benchmarks/ledger/run.py --smoke

PAIRS ?= 10
FIRST_SEED ?= 1

ledger-pairs:
	$(PYTHON) tools/ledger_pairs.py --parent $(PARENT) \
		--workload $(WORKLOAD) --pairs $(PAIRS) --first-seed $(FIRST_SEED) \
		$(if $(LAYER),--layer $(LAYER))

coverage:
	$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term \
		--cov-report=xml --cov-fail-under=85

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools

examples:
	@for script in examples/*.py; do \
		echo "$$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done

bench-paper:
	$(PYTHON) -m pytest -q benchmarks/bench_table1_schema_stats.py \
		benchmarks/bench_table3_precision_recall.py \
		benchmarks/bench_table4_runtime.py \
		benchmarks/bench_table5_comparison.py --benchmark-disable

loc:
	@test -n "$(PARENT)" || { echo "usage: make loc PARENT=<rev>"; exit 2; }
	@git diff --numstat $(PARENT) -- src tests | awk '\
		{ print; top = $$3; sub("/.*", "", top); add[top] += $$1; del[top] += $$2 } \
		END { for (i = 1; i <= 2; i++) { top = i == 1 ? "src" : "tests"; \
			printf "%s/: +%d -%d, net %+d\n", top, add[top], del[top], \
				add[top] - del[top] } }'

check: lint test examples bench-paper test-stress ledger-smoke
