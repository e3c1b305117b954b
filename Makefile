# Single entry points for CI and local development.
#
#   make test         tier-1 test suite (the PR gate)
#   make test-fast    unit subset (index/core/sqlengine/graph/warehouse):
#                     seconds, for tight edit loops
#   make bench-smoke  quick benchmarks with hard correctness + speedup
#                     asserts (planner; vectorized engine >=3x + parity,
#                     emits BENCH_engine.json; dictionary encoding >=2x +
#                     hash LEFT JOIN >=2x + TopN beats Sort+Limit, emits
#                     BENCH_dict.json; search serving + warm-start;
#                     DML plan-cache invalidation, emits BENCH_dml.json;
#                     durability: checkpoint cold-start >=5x over
#                     re-ingest + byte-identical recovery, emits
#                     BENCH_durability.json;
#                     observability off-switch overhead <5%, emits
#                     BENCH_obs.json; fused/parallel scale bench at a
#                     reduced 50k rows, emits BENCH_scale.json;
#                     concurrent serving: threaded search_many beats the
#                     sequential loop + mixed read/write HTTP p50/p99,
#                     emits BENCH_serving.json).
#                     BENCH_SPEEDUP_MIN relaxes the *timing* floors on
#                     noisy shared runners (see benchmarks/bench_utils.py);
#                     correctness asserts always stay hard.
#   make bench-scale  the full-size scale benchmark: fused codegen >=10x
#                     over row mode and >=2x over the unfused batch
#                     engine at 1M rows (BENCH_SCALE_ROWS overrides the
#                     row count), emits BENCH_scale.json
#   make bench-serving  the serving benchmark alone (concurrent
#                     search_many + HTTP mixed load), emits
#                     BENCH_serving.json
#   make test-stress  the stress-marked overload/chaos serving tests
#                     alone (fault storms, 2x saturation shedding);
#                     bounded by design, suitable for a CI job with a
#                     hard timeout
#   make bench-resilience  the resilience benchmark alone (2x
#                     saturation sheds with 429s + bounded accepted
#                     p99; deadline cancellation), emits
#                     BENCH_resilience.json
#   make ledger       the perf ledger (BENCHMARK.json): four workloads,
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
#   make check        all of the above (except coverage)

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-stress bench-smoke bench-scale bench-serving \
	bench-resilience ledger ledger-smoke ledger-pairs coverage lint check

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q tests/index tests/core tests/sqlengine \
		tests/graph tests/warehouse

bench-smoke:
	BENCH_SCALE_ROWS=50000 $(PYTHON) -m pytest \
		benchmarks/bench_planner_speedup.py \
		benchmarks/bench_vectorized_engine.py \
		benchmarks/bench_dictionary_engine.py \
		benchmarks/bench_search_serving.py \
		benchmarks/bench_dml_invalidation.py \
		benchmarks/bench_durability.py \
		benchmarks/bench_observability_overhead.py \
		benchmarks/bench_scale.py \
		benchmarks/bench_serving.py \
		benchmarks/bench_resilience.py -q -s

test-stress:
	$(PYTHON) -m pytest -q -m stress tests benchmarks/bench_resilience.py

bench-scale:
	$(PYTHON) -m pytest benchmarks/bench_scale.py -q -s

bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving.py -q -s

bench-resilience:
	$(PYTHON) -m pytest benchmarks/bench_resilience.py -q -s

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

check: lint test bench-smoke
