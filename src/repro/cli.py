"""Command-line interface.

Usage::

    python -m repro search "customers Zurich financial instruments"
    python -m repro search --explain "customers Zurich"   # plans inline
    python -m repro search --batch queries.txt  # one query per line
    python -m repro explain "SELECT ..."  # optimized query plan tree
    python -m repro explain --analyze "SELECT ..."  # + per-op actuals
    python -m repro trace "customers Zurich"  # rendered span tree
    python -m repro sql "UPDATE ..."     # run SQL (incl. UPDATE/DELETE)
    python -m repro sql --data-dir d "BEGIN" "INSERT ..." "COMMIT"
    python -m repro serve --port 8765    # JSON-over-HTTP search service
    python -m repro --engine-config segment-rows=4096 serve
    python -m repro recover d            # replay checkpoint + WAL, report
    python -m repro recover d --checkpoint  # + write a fresh checkpoint
    python -m repro experiments          # Tables 2, 3 and 4
    python -m repro experiments --batch  # same, served via search_many
    python -m repro compare              # Table 5 (runs the baselines)
    python -m repro stats                # warehouse + Table 1 statistics
    python -m repro stats --metrics      # process-wide metrics registry
    python -m repro index build          # time a cold index build
    python -m repro index save           # snapshot indexes to disk
    python -m repro index load           # verify a warm-start snapshot
    python -m repro index stats          # index sizes + maintenance state

All commands build the finbank warehouse (deterministic, seconds);
``--snapshot PATH`` warm-starts its indexes from a saved snapshot.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.soda import Soda, SodaConfig
from repro.warehouse.minibank import build_minibank


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SODA (VLDB 2012) reproduction: keyword search over a "
        "data warehouse",
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="data generation seed (default 42)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="data volume scale factor (default 1.0)")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="warm-start indexes from this snapshot file "
                             "when it matches the catalog")
    parser.add_argument("--engine-config", default=None, metavar="SPEC",
                        help="engine settings as key=value[,key=value] over "
                             "the EngineConfig fields, e.g. "
                             "'segment-rows=4096,plan-cache-size=0'")

    commands = parser.add_subparsers(dest="command", required=True)

    search = commands.add_parser("search", help="run a SODA query")
    search.add_argument("query", nargs="?", default=None,
                        help="keywords + operators + values")
    search.add_argument("--batch", metavar="FILE", default=None,
                        help="serve a batch: one query per line of FILE "
                             "('-' reads stdin)")
    search.add_argument("--top-n", type=int, default=10,
                        help="interpretations kept by step 2 (default 10)")
    search.add_argument("--no-dbpedia", action="store_true",
                        help="drop the DBpedia synonym layer")
    search.add_argument("--no-execute", action="store_true",
                        help="generate SQL only, skip result snippets")
    search.add_argument("--limit", type=int, default=5,
                        help="statements to display (default 5)")
    search.add_argument("--explain", action="store_true",
                        help="print the query plan under each statement")
    search.add_argument("--analyze", action="store_true",
                        help="with plans: execute instrumented and show "
                             "actual rows + self-time (implies --explain)")
    search.add_argument("--json", action="store_true",
                        help="emit the result as JSON (the same stable wire "
                             "shape `repro serve` answers with)")

    explain = commands.add_parser(
        "explain", help="show the optimized query plan for a SQL statement"
    )
    explain.add_argument("sql", help="a SELECT statement (quote it)")
    explain.add_argument("--analyze", action="store_true",
                         help="execute the statement instrumented and "
                              "annotate each operator with actual rows, "
                              "batches and self-time")

    trace = commands.add_parser(
        "trace", help="run a SODA query with tracing and render the span tree"
    )
    trace.add_argument("query", help="keywords + operators + values")
    trace.add_argument("--json", action="store_true",
                       help="emit the span tree as JSON instead of a tree")
    trace.add_argument("--no-execute", action="store_true",
                       help="generate SQL only, skip result snippets")

    sql = commands.add_parser(
        "sql", help="execute SQL statements against the warehouse or a "
                    "durable database directory"
    )
    sql.add_argument(
        "statements", nargs="+", metavar="statement",
        help="SELECT / INSERT / UPDATE / DELETE / CREATE TABLE / BEGIN / "
             "COMMIT / ROLLBACK / CHECKPOINT (quote each; executed in "
             "order, so one invocation can run a whole transaction)",
    )
    sql.add_argument("--limit", type=int, default=20,
                     help="result rows to display (default 20)")
    sql.add_argument("--data-dir", default=None, metavar="DIR",
                     help="run against a durable database in DIR (created "
                          "or recovered: checkpoint + WAL replay) instead "
                          "of the in-memory finbank warehouse")

    serve = commands.add_parser(
        "serve", help="serve searches over JSON-over-HTTP (asyncio front "
                      "end; /search, /sql, /metrics, /healthz)"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default 8765; 0 = ephemeral)")
    serve.add_argument("--http-workers", type=int, default=4, metavar="N",
                       help="engine thread pool size: searches/SQL in "
                            "flight at once (default 4)")
    serve.add_argument("--limit", type=int, default=5,
                       help="default statements per /search response "
                            "(default 5; clients override per request)")
    serve.add_argument("--request-timeout-ms", type=int, default=None,
                       metavar="MS",
                       help="per-request deadline: requests over budget "
                            "cancel cooperatively and answer 503 (default: "
                            "the engine config's request_timeout_ms; "
                            "clients override with ?timeout_ms=)")
    serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                       help="engine calls admitted at once (default: "
                            "--http-workers); excess requests queue")
    serve.add_argument("--queue-depth", type=int, default=16, metavar="N",
                       help="bounded admission queue: requests waiting for "
                            "an engine slot (default 16; beyond it, 429)")
    serve.add_argument("--queue-timeout-ms", type=float, default=1000.0,
                       metavar="MS",
                       help="longest a request may wait for admission "
                            "before being shed with 429 (default 1000)")
    serve.add_argument("--drain-timeout-s", type=float, default=10.0,
                       metavar="S",
                       help="graceful-drain budget on stop/SIGTERM: "
                            "in-flight requests get this long to finish "
                            "(default 10)")
    serve.add_argument("--snapshot-save", default=None, metavar="PATH",
                       help="save the warm index snapshot to PATH once, "
                            "when the server drains")

    recover = commands.add_parser(
        "recover",
        help="recover a durable database directory and report its state",
    )
    recover.add_argument("data_dir", metavar="DIR",
                         help="data directory (checkpoint + WAL)")
    recover.add_argument("--checkpoint", action="store_true",
                         help="write a fresh checkpoint after recovery "
                              "(truncates the WAL)")

    experiments = commands.add_parser(
        "experiments", help="run the 13-query workload (Tables 2-4)"
    )
    experiments.add_argument(
        "--batch", action="store_true",
        help="serve the workload through Soda.search_many",
    )
    commands.add_parser(
        "compare", help="run the five baselines (Table 5)"
    )
    stats = commands.add_parser(
        "stats", help="warehouse statistics (Table 1)"
    )
    stats.add_argument("--metrics", action="store_true",
                       help="dump the process-wide metrics registry "
                            "instead of the warehouse tables")
    stats.add_argument("--metrics-format",
                       choices=["table", "json", "prometheus"],
                       default="table",
                       help="rendering for --metrics (default table)")

    index = commands.add_parser(
        "index", help="manage the long-lived search indexes"
    )
    index.add_argument(
        "action", choices=["build", "save", "load", "stats"],
        help="build: time a cold build; save/load: snapshot round-trip; "
             "stats: sizes + maintenance state",
    )
    index.add_argument("--path", default="soda_index_snapshot.json.gz",
                       help="snapshot file (default soda_index_snapshot.json.gz, gzip-compressed)")

    browse = commands.add_parser(
        "browse", help="schema browser: describe a table or a term"
    )
    browse.add_argument("name", help="physical table name or business term")

    page = commands.add_parser(
        "page", help="Google-style result page for a query"
    )
    page.add_argument("query")
    page.add_argument("--page", type=int, default=1)
    page.add_argument("--page-size", type=int, default=5)
    return parser


def _engine_config(args):
    """The EngineConfig ``--engine-config`` asks for (None: the default)."""
    from repro.sqlengine.config import EngineConfig

    spec = getattr(args, "engine_config", None)
    if spec is None:
        return None
    return EngineConfig.from_cli(spec)


def _build_warehouse(args, **overrides):
    kwargs = {
        "seed": args.seed,
        "scale": args.scale,
        "snapshot": getattr(args, "snapshot", None),
        "engine_config": _engine_config(args),
    }
    kwargs.update(overrides)
    return build_minibank(**kwargs)


def cmd_search(args, out) -> int:
    if args.query is None and args.batch is None:
        print("error: provide a query or --batch FILE", file=out)
        return 2
    if args.query is not None and args.batch is not None:
        print("error: give either a query or --batch FILE, not both",
              file=out)
        return 2
    warehouse = _build_warehouse(args)
    config = SodaConfig(top_n=args.top_n, use_dbpedia=not args.no_dbpedia)
    soda = Soda(warehouse, config)
    if args.batch is not None:
        return _run_search_batch(args, soda, out)
    result = soda.search(args.query, execute=not args.no_execute)

    if args.json:
        print(result.to_json(limit=args.limit, indent=2), file=out)
        return 0
    print(f"query:      {result.query.describe()}", file=out)
    print(f"complexity: {result.complexity}", file=out)
    print(f"statements: {len(result.statements)}", file=out)
    for position, statement in enumerate(result.statements[:args.limit], 1):
        marker = "  [disconnected]" if statement.disconnected else ""
        print(f"\n#{position}  score {statement.score:.2f}{marker}", file=out)
        print(f"    {statement.sql}", file=out)
        if statement.snippet is not None:
            print(f"    -> {len(statement.snippet.rows)} snippet tuple(s)",
                  file=out)
            for row in statement.snippet.rows[:3]:
                print(f"       {row}", file=out)
        elif statement.execution_error:
            print(f"    -> {statement.execution_error}", file=out)
        if args.explain or args.analyze:
            from repro.errors import SqlError

            try:
                plan = soda.explain(statement.sql, analyze=args.analyze)
            except SqlError as exc:
                plan = f"(not plannable: {exc})"
            for line in plan.splitlines():
                print(f"    | {line}", file=out)
    if not result.statements:
        print("\n(no executable statements — try different keywords)",
              file=out)
    return 0


def _run_search_batch(args, soda, out) -> int:
    import sys as _sys
    import time

    from repro.core.serving import SearchSession

    if args.batch == "-":
        lines = _sys.stdin.read().splitlines()
    else:
        try:
            with open(args.batch, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            print(f"error: cannot read batch file: {exc}", file=out)
            return 1
    queries = [line.strip() for line in lines if line.strip()]
    if not queries:
        print("error: batch file contains no queries", file=out)
        return 1

    session = SearchSession(
        soda, execute=not args.no_execute, limit=args.limit
    )
    started = time.perf_counter()
    results = session.search_many(queries)
    elapsed = time.perf_counter() - started

    for text, result in zip(queries, results):
        best = result.best
        if best is None:
            print(f"{text!r}: no statements", file=out)
            continue
        print(
            f"{text!r}: {len(result.statements)} statement(s), "
            f"best score {best.score:.2f}",
            file=out,
        )
        print(f"    {best.sql}", file=out)
        if args.explain:
            from repro.errors import SqlError

            try:
                plan = soda.explain(best.sql)
            except SqlError as exc:
                plan = f"(not plannable: {exc})"
            for line in plan.splitlines():
                print(f"    | {line}", file=out)
    qps = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(
        f"\nbatch: {len(queries)} queries "
        f"({len(set(queries))} unique) in {elapsed:.3f}s ({qps:.1f} q/s)",
        file=out,
    )
    return 0


def cmd_explain(args, out) -> int:
    from repro.errors import SqlError

    warehouse = _build_warehouse(args)
    try:
        plan = warehouse.database.explain(args.sql, analyze=args.analyze)
    except SqlError as exc:
        print(f"error: {exc}", file=out)
        return 1
    print(plan, file=out)
    return 0


def cmd_trace(args, out) -> int:
    warehouse = _build_warehouse(args)
    soda = Soda(warehouse, SodaConfig())
    result = soda.search(
        args.query, execute=not args.no_execute, trace=True
    )
    if args.json:
        print(result.trace.to_json(), file=out)
        return 0
    print(f"query:      {result.query.describe()}", file=out)
    print(f"statements: {len(result.statements)}", file=out)
    print(result.trace.render(), file=out)
    return 0


def _print_result(result, limit, out) -> None:
    if result.columns:
        print(" | ".join(result.columns), file=out)
        for row in result.rows[:limit]:
            print(" | ".join(str(value) for value in row), file=out)
        shown = min(len(result.rows), limit)
        suffix = "" if shown == len(result.rows) else f" ({shown} shown)"
        print(f"{len(result.rows)} row(s){suffix}", file=out)
    elif result.rowcount is not None:
        print(f"{result.rowcount} row(s) affected", file=out)
    else:
        print("ok", file=out)


def cmd_sql(args, out) -> int:
    from repro.errors import RecoveryError, SqlError

    if args.data_dir is not None:
        from repro.sqlengine.database import Database

        try:
            database = Database(
                config=_engine_config(args), data_dir=args.data_dir
            )
        except RecoveryError as exc:
            print(f"error: cannot recover {args.data_dir}: {exc}", file=out)
            return 1
    else:
        database = _build_warehouse(args).database
    try:
        for statement in args.statements:
            try:
                result = database.execute(statement)
            except SqlError as exc:
                print(f"error: {exc}", file=out)
                return 1
            _print_result(result, args.limit, out)
    finally:
        if args.data_dir is not None:
            database.close()
    return 0


def cmd_serve(args, out) -> int:
    import signal

    from repro.server import SodaServer

    # every table pins snapshots, so reader threads run while /sql
    # writes land
    warehouse = _build_warehouse(args)
    soda = Soda(warehouse, SodaConfig())
    server = SodaServer(
        soda,
        host=args.host,
        port=args.port,
        workers=args.http_workers,
        default_limit=args.limit,
        request_timeout_ms=args.request_timeout_ms,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        queue_timeout_ms=args.queue_timeout_ms,
        drain_timeout_s=args.drain_timeout_s,
        snapshot_path=args.snapshot_save,
    )
    server.start_background()

    # SIGTERM drains gracefully, same as Ctrl-C: stop accepting, finish
    # in-flight requests (up to --drain-timeout-s), then exit cleanly
    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread (embedded callers)
        pass
    config = warehouse.database.config
    print(f"serving finbank on http://{args.host}:{server.port}", file=out)
    print(
        "engine: "
        + ", ".join(f"{k}={v}" for k, v in config.as_dict().items()),
        file=out,
    )
    print("endpoints: /search /sql /metrics /healthz  "
          "(Ctrl-C or SIGTERM drains and stops)",
          file=out)
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=1)
    except KeyboardInterrupt:
        print("draining...", file=out)
    finally:
        report = server.stop()
        if report["stuck_threads"]:  # pragma: no cover - hang reporting
            print(
                "warning: threads still running after drain: "
                + ", ".join(report["stuck_threads"]),
                file=out,
            )
    return 0


def cmd_recover(args, out) -> int:
    from repro.errors import RecoveryError
    from repro.sqlengine.database import Database

    try:
        database = Database(data_dir=args.data_dir)
    except RecoveryError as exc:
        where = exc.path or args.data_dir
        kind = exc.kind or "unknown"
        print(f"error: recovery failed [{kind}] at {where}: {exc}", file=out)
        return 1
    info = database.recovery_info
    checkpoint_state = "loaded" if info["checkpoint"] else "none"
    print(
        f"recovered {args.data_dir}: generation {info['generation']}, "
        f"checkpoint {checkpoint_state}, "
        f"{info['replayed']} WAL record(s) replayed",
        file=out,
    )
    for name in database.table_names():
        print(f"  {name:32s} {database.row_count(name)} row(s)", file=out)
    if args.checkpoint:
        summary = database.checkpoint()
        print(
            f"checkpoint written: generation {summary['generation']}, "
            f"{summary['checkpoint_bytes']} byte(s)",
            file=out,
        )
    database.close()
    return 0


def cmd_experiments(args, out) -> int:
    from repro.experiments.reporting import (
        format_table2,
        format_table3,
        format_table4,
    )
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(warehouse=_build_warehouse(args))
    outcomes = runner.run_all(batch=args.batch)
    print("Table 2: Experiment queries", file=out)
    print(format_table2(), file=out)
    print("\nTable 3: Precision and recall (measured vs paper)", file=out)
    print(format_table3(outcomes), file=out)
    print("\nTable 4: Complexity and runtime (measured vs paper)", file=out)
    print(format_table4(outcomes), file=out)
    return 0


def cmd_compare(args, out) -> int:
    from repro.baselines.capabilities import (
        capability_matrix,
        default_systems,
        evaluate_system,
        format_table5,
        soda_evaluation,
    )
    from repro.experiments.runner import ExperimentRunner

    warehouse = _build_warehouse(args, scale=min(args.scale, 0.5), snapshot=None)
    evaluations = [
        evaluate_system(system, warehouse)
        for system in default_systems(warehouse)
    ]
    outcomes = ExperimentRunner(warehouse=warehouse).run_all()
    evaluations.append(soda_evaluation(outcomes))
    print("Table 5: Qualitative comparison (measured [paper])", file=out)
    print(
        format_table5(
            capability_matrix(evaluations), [e.system for e in evaluations]
        ),
        file=out,
    )
    return 0


def cmd_index(args, out) -> int:
    import os
    import time

    from repro.errors import WarehouseError
    from repro.index.inverted import InvertedIndex

    # a load left on the default path falls back to the pre-compression
    # default name when only that file exists (the loader reads both
    # formats, so legacy snapshots keep working without --path)
    if (
        args.action == "load"
        and args.path == "soda_index_snapshot.json.gz"
        and not os.path.exists(args.path)
        and os.path.exists("soda_index_snapshot.json")
    ):
        args.path = "soda_index_snapshot.json"

    # "load" warm-starts the build from the snapshot under test so the
    # success path never pays the cold scan it is meant to replace;
    # the other actions always start cold
    warehouse = _build_warehouse(
        args, snapshot=args.path if args.action == "load" else None
    )
    if args.action == "build":
        started = time.perf_counter()
        rebuilt = InvertedIndex.build(warehouse.database.catalog)
        warehouse.classification_index()
        elapsed = time.perf_counter() - started
        print(f"cold index build: {elapsed:.3f}s", file=out)
        for key, value in sorted(rebuilt.size_summary().items()):
            print(f"  {key:32s} {value}", file=out)
    elif args.action == "save":
        warehouse.classification_index()  # materialize the default variant
        started = time.perf_counter()
        warehouse.save_index_snapshot(args.path)
        elapsed = time.perf_counter() - started
        print(f"saved index snapshot to {args.path} ({elapsed:.3f}s)",
              file=out)
    elif args.action == "load":
        started = time.perf_counter()
        try:
            snapshot = warehouse.load_index_snapshot(args.path)
        except WarehouseError as exc:
            print(f"error: {exc}", file=out)
            return 1
        elapsed = time.perf_counter() - started
        print(
            f"loaded snapshot {args.path} ({elapsed:.3f}s, "
            f"fingerprint {snapshot.fingerprint}, "
            f"{len(snapshot.classifications)} classification variant(s))",
            file=out,
        )
        for key, value in sorted(warehouse.inverted.size_summary().items()):
            print(f"  {key:32s} {value}", file=out)
    else:  # stats
        for key, value in sorted(warehouse.inverted.size_summary().items()):
            print(f"  {key:32s} {value}", file=out)
        classification = warehouse.classification_index()
        print(f"  {'classification_terms':32s} {classification.term_count()}",
              file=out)
        maintainer = warehouse.maintainer
        if maintainer is not None:
            print(f"  {'maintained_inserts':32s} {maintainer.applied_inserts}",
                  file=out)
            print(f"  {'maintained_updates':32s} {maintainer.applied_updates}",
                  file=out)
            print(f"  {'maintained_deletes':32s} {maintainer.applied_deletes}",
                  file=out)
            print(f"  {'maintained_ddl':32s} {maintainer.applied_ddl}",
                  file=out)
    return 0


def cmd_stats(args, out) -> int:
    from repro.experiments.reporting import format_table1
    from repro.warehouse.synthetic import generate_definition

    warehouse = _build_warehouse(args)
    if args.metrics:
        return _print_metrics(warehouse, args.metrics_format, out)
    print("finbank warehouse:", file=out)
    for key, value in sorted(warehouse.statistics().items()):
        print(f"  {key:32s} {value}", file=out)
    print("\nTable 1 (synthetic generator at paper scale):", file=out)
    print(format_table1(generate_definition().schema_statistics()), file=out)
    return 0


def _print_metrics(warehouse, metrics_format, out) -> int:
    import repro.server  # noqa: F401 - registers serving.http.* / .search.*
    from repro.obs.metrics import registry

    snapshot = warehouse.database.metrics()  # refreshes the gauges
    if metrics_format == "json":
        import json

        print(json.dumps(snapshot, indent=2, sort_keys=True), file=out)
    elif metrics_format == "prometheus":
        print(registry().render_prometheus(), file=out)
    else:
        for name, entry in sorted(snapshot.items()):
            value = entry["value"]
            if entry["kind"] == "histogram":
                value = (
                    f"count={value['count']} sum={value['sum']:.6f} "
                    f"mean={value['mean']:.6f}"
                )
            print(f"  {name:40s} {entry['kind']:9s} {value}", file=out)
    return 0


def cmd_browse(args, out) -> int:
    from repro.warehouse.browser import SchemaBrowser

    warehouse = _build_warehouse(args)
    browser = SchemaBrowser(warehouse)
    if warehouse.definition.has_physical_table(args.name):
        print(browser.describe_table(args.name).render(), file=out)
    else:
        print(browser.describe_term(args.name).render(), file=out)
    return 0


def cmd_page(args, out) -> int:
    from repro.core.results import render_page

    warehouse = _build_warehouse(args)
    soda = Soda(warehouse, SodaConfig())
    result = soda.search(args.query)
    page = render_page(result, page=args.page, page_size=args.page_size)
    print(page.render(), file=out)
    return 0


def main(argv=None, out=None) -> int:
    from repro.errors import SqlError

    out = out or sys.stdout
    args = make_parser().parse_args(argv)
    handlers = {
        "search": cmd_search,
        "explain": cmd_explain,
        "trace": cmd_trace,
        "sql": cmd_sql,
        "serve": cmd_serve,
        "recover": cmd_recover,
        "experiments": cmd_experiments,
        "compare": cmd_compare,
        "stats": cmd_stats,
        "index": cmd_index,
        "browse": cmd_browse,
        "page": cmd_page,
    }
    try:
        return handlers[args.command](args, out)
    except SqlError as exc:  # e.g. a bad --engine-config value
        print(f"error: {exc}", file=out)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
