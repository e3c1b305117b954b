"""The two in-process workloads; each call runs in a fresh child process.

``run.py`` starts one child per repetition and reads its result from
its standard output, so peak RSS is that of one set-up and one run and
nothing is warm from a previous one.  An untraced child returns its
set-up time, peak RSS and the latency of every operation in sequence
order (``run.py`` combines the repetitions); a traced child returns
the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import shutil
from time import perf_counter

import workloads
from spans import Spans, flatten_metrics, mean, memo_hit_ratios, p50, ratio


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize()


def registry_values() -> dict:
    from repro.obs.metrics import registry

    return flatten_metrics(registry().to_dict())


# ----------------------------------------------------------------------
# sqlgen_schema_cold
# ----------------------------------------------------------------------
def sqlgen_schema_cold(seed, seconds, trace, sizes, out_dir, checker):
    from repro.core.soda import Soda, SodaConfig
    from repro.experiments.synthetic_workload import populate_synthetic
    from repro.index.inverted import InvertedIndex
    from repro.warehouse.graphbuilder import build_metadata_graph
    from repro.warehouse.model import build_database
    from repro.warehouse.synthetic import SyntheticConfig, generate_definition
    from repro.warehouse.warehouse import Warehouse

    spans = Spans()
    config = SyntheticConfig()
    if sizes.schema_factor != 1.0:
        config = config.scaled(sizes.schema_factor)
    started = perf_counter()
    definition = generate_definition(config)
    with spans.span("build_database", "warehouse"):
        database = build_database(definition)
    with spans.span("populate", "warehouse"):
        populate_synthetic(
            database, definition, rows_per_table=sizes.schema_rows_per_table
        )
    with spans.span("build_metadata_graph", "graph"):
        graph = build_metadata_graph(definition)
    with spans.span("InvertedIndex.build", "index"):
        inverted = InvertedIndex.build(database.catalog)
    warehouse = Warehouse(definition, database, graph, inverted)
    with spans.span("classification_index", "index"):
        warehouse.classification_index()
    soda = Soda(warehouse, SodaConfig())
    setup_s = perf_counter() - started

    texts = workloads.schema_texts(
        definition, sizes.schema_universe,
        sizes.schema_universe if checker.recording
        else min(sizes.schema_universe,
                 workloads.scaled(sizes.schema_texts, seconds)),
        seed,
    )

    marks: list = []
    if trace:
        soda.pipeline.add_hook(
            lambda context, step: marks.append((step, perf_counter())) and False
        )
    latency_ms, failures, issued = [], [], []
    statements = answered = 0
    # the list is sized to take a third of *seconds*; all of it is the limit
    deadline = perf_counter() + (float("inf") if checker.recording else seconds)
    for text in texts:
        if perf_counter() >= deadline:
            failures.append(
                f"only {len(issued)} of {len(texts)} texts issued "
                f"within {seconds:g} s"
            )
            break
        start = perf_counter()
        result = soda.search(text, execute=False)
        end = perf_counter()
        latency_ms.append((end - start) * 1e3)
        issued.append(text)
        statements += len(result.statements)
        answered += bool(result.statements)
        if not checker.check(workloads.text_key(text), result.sql_texts()):
            failures.append(f"golden mismatch for {text!r}")
        if trace:
            parent = spans.add("Soda.search", "core", start, end)
            previous = start
            for step, mark in marks:
                if step.timing_field is not None:
                    previous = mark - getattr(result.timings, step.timing_field)
                spans.add("step:" + step.name, "core", previous, mark, parent)
                previous = mark
            marks.clear()
    stamp = {
        "sequence_digest": workloads.sequence_digest(texts),
        "texts": len(texts),
        "tables": len(definition.physical_tables),
    }
    if not trace:
        return {
            "setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
            "reads_ms": latency_ms, "writes_ms": [],
        }, len(issued), failures, stamp

    searches = max(1, len(issued))
    own = spans.self_times()
    metrics = {
        f"core.{name}_ms": sum(spans.durations("step:" + name)) * 1e3 / searches
        for name in ("lookup", "rank", "tables", "filters", "sqlgen", "execute")
    }
    metrics["core.unattributed_ms"] = sum(
        own[record["id"]] for record in spans.records
        if record["name"] == "Soda.search"
    ) * 1e3 / searches

    # the replay: the same texts again, every memo warm
    before = registry_values()
    warm_ms = []
    for text in issued:
        start = perf_counter()
        result = soda.search(text, execute=False)
        end = perf_counter()
        spans.add("Soda.search:replay", "core", start, end)
        warm_ms.append((end - start) * 1e3)
        if not checker.check(workloads.text_key(text), result.sql_texts()):
            failures.append(f"golden mismatch on replay for {text!r}")
    marks.clear()
    after = registry_values()
    metrics.update(
        memo_hit_ratios(lambda name: after.get(name, 0) - before.get(name, 0))
    )
    metrics.update({
        "core.sqlgen_warm_p50_ms": p50(warm_ms),
        "core.statements_per_search": statements / searches,
        "core.answered_share": answered / searches,
        "index.inverted_build_s": sum(spans.durations("InvertedIndex.build")),
        "index.classification_build_s":
            sum(spans.durations("classification_index")),
        "graph.build_s": sum(spans.durations("build_metadata_graph")),
        "warehouse.db_build_s": sum(spans.durations("build_database")),
        "warehouse.populate_s": sum(spans.durations("populate")),
        "index.postings": inverted.entry_count(),
        "graph.triples": len(graph),
        # the harness made no call into the SQL engine; its own counters
        # say whether the pipeline did
        "sqlengine.plan_cache_hit_ratio": ratio(
            after["plan_cache.hits"],
            after["plan_cache.hits"] + after["plan_cache.misses"],
        ),
        "trace.spans": len(spans.records),
        "trace.ops_per_s": len(issued) / sum(latency_ms) * 1e3,
    })
    spans.write(out_dir / "trace_sqlgen_schema_cold.jsonl")
    stamp["self_ms_by_layer"] = spans.self_ms_by_layer()
    return metrics, len(issued) * 2, failures, stamp


# ----------------------------------------------------------------------
# engine_ingest_mix
# ----------------------------------------------------------------------
TEMPLATES = ("headline", "topn", "groupby", "strfilter", "leftjoin", "point")


def engine_ingest_mix(seed, seconds, trace, sizes, out_dir, checker):
    import os

    from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
    from repro.sqlengine.database import Database
    from repro.sqlengine.parser import parse_sql

    spans = Spans()
    data_dir = out_dir / f"engine_data_{os.getpid()}"
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    config = EngineConfig(segment_rows=DEFAULT_SEGMENT_ROWS)
    rss_before = rss_bytes()
    try:
        # flush policy: fsync on every WAL record, the same on both sides
        # of any comparison.  Generating a batch is not part of set-up.
        dims = workloads.engine_dims()
        user_bytes = len(json.dumps(dims, separators=(",", ":")))
        started = perf_counter()
        database = Database(data_dir=str(data_dir), wal_sync=True, config=config)
        database.create_table("dims", workloads.DIMS_COLUMNS, primary_key=["id"])
        database.create_table("facts", workloads.FACTS_COLUMNS, primary_key=["id"])
        database.insert_rows("dims", dims)
        setup_s = perf_counter() - started
        for batch in workloads.engine_batches(sizes.facts, sizes.ingest_batch):
            user_bytes += len(json.dumps(batch, separators=(",", ":")))
            with spans.span("insert_rows", "sqlengine"):
                database.insert_rows("facts", batch)
        del batch
        ingest_s = sum(spans.durations("insert_rows"))
        setup_s += ingest_s
        rss_per_row = (rss_bytes() - rss_before) / (len(dims) + sizes.facts)
        after_ingest = registry_values()

        def select(name, sql):
            """One read, split at the engine's public calls when traced."""
            if not trace:
                return database.execute(sql)
            hits = database.planner.cache.stats.hits
            with spans.span("select:" + name, "sqlengine"):
                with spans.span("parse_sql", "sqlengine"):
                    statement = parse_sql(sql)
                with spans.span("planner.prepare", "sqlengine") as prepare:
                    database.planner.prepare(statement)
                prepare["cache"] = (
                    "hit" if database.planner.cache.stats.hits > hits else "miss"
                )
                with spans.span("planner.execute", "sqlengine"):
                    return database.planner.execute(statement)

        reads, writes = [], []  # latencies in sequence order
        read_ms = {name: [] for name in TEMPLATES}
        read_ms["after_write"] = []
        write_ms = {"update": [], "delete": [], "insert": []}
        failures = []
        rows_returned = 0
        iterations = sizes.engine_golden_iterations
        if not checker.recording:
            iterations = min(
                iterations, workloads.scaled(sizes.engine_iterations, seconds)
            )
        # sized to take a third of *seconds*; all of it is the limit
        deadline = perf_counter() + (
            float("inf") if checker.recording else seconds
        )
        for iteration in range(iterations):
            if perf_counter() >= deadline:
                failures.append(
                    f"only {iteration} of {iterations} iterations "
                    f"within {seconds:g} s"
                )
                break
            statements = workloads.engine_selects(iteration, sizes.facts)
            answers = {}
            order = workloads.engine_read_order(seed, iteration)
            for position, name in enumerate(order):
                start = perf_counter()
                result = select(name, statements[name])
                reads.append((perf_counter() - start) * 1e3)
                # the first read follows the previous iteration's write
                read_ms[name if position else "after_write"].append(reads[-1])
                rows_returned += len(result.rows)
                answers[name] = result.rows
            kind, statement = workloads.engine_write(iteration, sizes.facts)
            start = perf_counter()
            with spans.span("dml:" + kind, "sqlengine"):
                result = database.execute(statement)
            writes.append((perf_counter() - start) * 1e3)
            write_ms[kind].append(writes[-1])
            answers[kind] = result.rowcount
            if not checker.check(str(iteration), answers):
                failures.append(f"golden mismatch in iteration {iteration}")

        attempted = len(reads) + len(writes)
        stamp = {
            "sequence_digest": workloads.sequence_digest(
                workloads.engine_read_order(seed, i) for i in range(iterations)
            ),
            "iterations": iterations,
            "reads": len(reads),
            "writes": len(writes),
            "facts": sizes.facts,
        }
        if not trace:
            database.close()
            return {
                "setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                "reads_ms": reads, "writes_ms": writes,
            }, attempted, failures, stamp

        after_run = registry_values()
        with spans.span("checkpoint", "sqlengine") as checkpoint:
            summary = database.checkpoint()
        # a WAL tail for recovery to replay on top of the checkpoint
        for extra in range(3):
            database.execute(
                workloads.engine_write(iterations + extra, sizes.facts)[1]
            )
        expected = {
            name: database.row_count(name) for name in ("dims", "facts")
        }
        database.close()
        del database
        for __ in range(sizes.reopens):
            with spans.span("reopen", "sqlengine"):
                reopened = Database(data_dir=str(data_dir), config=config)
            found = {name: reopened.row_count(name) for name in expected}
            if found != expected or reopened.recovery_info["replayed"] != 3:
                failures.append(f"recovery: {found} != {expected}")
            reopened.close()
            del reopened
        attempted += sizes.reopens

        def delta(name):
            return after_run.get(name, 0) - after_ingest.get(name, 0)

        prepare_ms = {"hit": [], "miss": []}
        for record in spans.records:
            if record["name"] == "planner.prepare":
                prepare_ms[record["cache"]].append(
                    (record["end"] - record["start"]) * 1e3
                )
        metrics = {
            f"sqlengine.q_{name}_p50_ms": p50(read_ms[name])
            for name in TEMPLATES
        }
        metrics.update({
            "sqlengine.select_after_write_p50_ms": p50(read_ms["after_write"]),
            "sqlengine.parse_ms": mean(spans.durations("parse_sql")) * 1e3,
            "sqlengine.plan_hit_ms": mean(prepare_ms["hit"]),
            "sqlengine.plan_miss_ms": mean(prepare_ms["miss"]),
            "sqlengine.exec_ms": mean(spans.durations("planner.execute")) * 1e3,
            "sqlengine.plan_cache_hit_ratio": ratio(
                len(prepare_ms["hit"]),
                len(prepare_ms["hit"]) + len(prepare_ms["miss"]),
            ),
            "sqlengine.plan_cache_invalidations":
                delta("plan_cache.invalidations"),
            "sqlengine.plan_cache_evictions": delta("plan_cache.evictions"),
            "sqlengine.rows_scanned_per_row_returned":
                ratio(delta("engine.rows_scanned"), rows_returned),
            "sqlengine.update_p50_ms": p50(write_ms["update"]),
            "sqlengine.delete_p50_ms": p50(write_ms["delete"]),
            "sqlengine.insert_p50_ms": p50(write_ms["insert"]),
            "write_p50_ms": p50(writes),
            "sqlengine.wal_bytes_per_user_byte":
                ratio(after_ingest.get("wal.bytes", 0), user_bytes),
            "sqlengine.wal_fsyncs": after_run.get("wal.fsyncs", 0),
            "sqlengine.checkpoint_s": checkpoint["end"] - checkpoint["start"],
            "sqlengine.checkpoint_bytes": summary["checkpoint_bytes"],
            "sqlengine.rss_bytes_per_row": rss_per_row,
            "ingest_rows_per_s": sizes.facts / ingest_s,
            "recover_s": p50(spans.durations("reopen")),
            "trace.spans": len(spans.records),
            "trace.ops_per_s":
                (len(reads) + len(writes)) / (sum(reads) + sum(writes)) * 1e3,
        })
        spans.write(out_dir / "trace_engine_ingest_mix.jsonl")
        stamp["self_ms_by_layer"] = spans.self_ms_by_layer()
        return metrics, attempted, failures, stamp
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


WORKLOADS = {
    "sqlgen_schema_cold": sqlgen_schema_cold,
    "engine_ingest_mix": engine_ingest_mix,
}
