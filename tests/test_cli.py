"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSearch:
    def test_search_prints_statements(self):
        code, output = run_cli(
            "--scale", "0.25", "search", "Sara Guttinger", "--no-execute"
        )
        assert code == 0
        assert "complexity:" in output
        assert "SELECT" in output

    def test_search_with_snippets(self):
        code, output = run_cli("--scale", "0.25", "search", "Zurich")
        assert code == 0
        assert "snippet tuple" in output

    def test_search_limit(self):
        __, output = run_cli(
            "--scale", "0.25", "search", "Sara", "--no-execute", "--limit", "1"
        )
        assert output.count("score ") == 1

    def test_search_no_dbpedia(self):
        __, output = run_cli(
            "--scale", "0.25", "search", "client", "--no-execute",
            "--no-dbpedia",
        )
        assert "no executable statements" in output

    def test_unknown_keywords(self):
        code, output = run_cli(
            "--scale", "0.25", "search", "zzzz qqqq", "--no-execute"
        )
        assert code == 0
        assert "no executable statements" in output

    def test_search_json_emits_the_wire_shape(self):
        import json

        code, output = run_cli(
            "--scale", "0.25", "search", "Zurich", "--json", "--limit", "2"
        )
        assert code == 0
        payload = json.loads(output)
        assert payload["query"]["text"] == "Zurich"
        assert len(payload["statements"]) <= 2
        assert payload["statements"][0]["sql"].startswith("SELECT")


class TestOtherCommands:
    def test_stats(self):
        code, output = run_cli("--scale", "0.25", "stats")
        assert code == 0
        assert "physical_tables" in output
        assert "472" in output  # Table 1 paper scale

    def test_experiments(self):
        code, output = run_cli("--scale", "0.5", "experiments")
        assert code == 0
        assert "Table 3" in output
        assert "paperP" in output

    def test_compare(self):
        code, output = run_cli("--scale", "0.25", "compare")
        assert code == 0
        assert "Keymantic" in output
        assert "SODA" in output

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli("--scale", "0.25")

    def test_browse_table(self):
        code, output = run_cli("--scale", "0.25", "browse", "individuals")
        assert code == 0
        assert "inherits from: parties" in output

    def test_browse_term(self):
        code, output = run_cli("--scale", "0.25", "browse", "customers")
        assert code == 0
        assert "reaches tables" in output

    def test_page(self):
        code, output = run_cli("--scale", "0.25", "page", "Credit Suisse")
        assert code == 0
        assert "results for: Credit Suisse" in output
        assert "page 1/" in output


class TestExplain:
    def test_explain_renders_plan_tree(self):
        code, output = run_cli(
            "--scale", "0.25", "explain",
            "SELECT count(*), o.status_cd FROM orders_td o, parties p "
            "WHERE o.party_id = p.id AND p.party_type_cd = 'I' "
            "GROUP BY o.status_cd ORDER BY count(*) DESC LIMIT 3",
        )
        assert code == 0
        assert "hash join" in output
        assert "aggregate group by o.status_cd" in output
        assert "top-n 3 by count(*) DESC" in output

    def test_explain_is_deterministic(self):
        sql = "SELECT id FROM parties WHERE party_type_cd = 'I'"
        __, first = run_cli("--scale", "0.25", "explain", sql)
        __, second = run_cli("--scale", "0.25", "explain", sql)
        assert first == second

    def test_explain_rejects_non_select(self):
        code, output = run_cli(
            "--scale", "0.25", "explain", "INSERT INTO parties VALUES (1)"
        )
        assert code == 1
        assert "error:" in output

    def test_sql_select_prints_rows(self):
        code, output = run_cli(
            "--scale", "0.25", "sql",
            "SELECT city, count(*) FROM addresses GROUP BY city "
            "ORDER BY count(*) DESC, city LIMIT 2",
        )
        assert code == 0
        assert "city | count(*)" in output
        assert "row(s)" in output

    def test_sql_update_reports_rowcount(self):
        code, output = run_cli(
            "--scale", "0.25", "sql",
            "UPDATE addresses SET country = 'CH' WHERE country = 'CH'",
        )
        assert code == 0
        assert "row(s) affected" in output

    def test_sql_delete_no_match_reports_zero(self):
        code, output = run_cli(
            "--scale", "0.25", "sql",
            "DELETE FROM addresses WHERE city = 'Nowhereville'",
        )
        assert code == 0
        assert "0 row(s) affected" in output

    def test_sql_error_exits_nonzero(self):
        code, output = run_cli(
            "--scale", "0.25", "sql", "UPDATE missing SET x = 1"
        )
        assert code == 1
        assert "error:" in output

    def test_sql_respects_display_limit(self):
        code, output = run_cli(
            "--scale", "0.25", "sql", "SELECT id FROM parties", "--limit", "3"
        )
        assert code == 0
        assert "(3 shown)" in output

    def test_explain_annotates_batch_mode_by_default(self):
        code, output = run_cli(
            "--scale", "0.25", "explain", "SELECT id FROM parties"
        )
        assert code == 0
        assert "[batch]" in output
        assert "[row]" not in output

    def test_execution_mode_flag_switches_engine(self):
        sql = "SELECT id FROM parties WHERE party_type_cd = 'I'"
        code, output = run_cli(
            "--scale", "0.25", "--engine-config", "execution-mode=row",
            "explain", sql,
        )
        assert code == 0
        assert "[row]" in output
        assert "[batch]" not in output

    def test_search_with_explain_flag(self):
        code, output = run_cli(
            "--scale", "0.25", "search", "Sara Guttinger", "--explain"
        )
        assert code == 0
        assert "    | " in output
        assert "scan" in output

    def test_explain_shows_the_statement_as_generated(self, tmp_path):
        # snippets execute under LIMIT snippet_rows; the printed plan is
        # the plan of the statement the user sees, which has no LIMIT
        batch = tmp_path / "queries.txt"
        batch.write_text("Zurich\n")
        for argv in (["Zurich"], ["--batch", str(batch)]):
            code, output = run_cli(
                "--scale", "0.25", "search", *argv, "--explain"
            )
            assert code == 0
            plan = [
                line for line in output.splitlines()
                if line.startswith("    | ")
            ]
            assert plan and plan[0].startswith("    | project")
            assert not any("limit" in line for line in plan)
            assert "LIMIT" not in output


class TestIndexCommand:
    def test_index_build_reports_timing_and_sizes(self):
        code, output = run_cli("--scale", "0.25", "index", "build")
        assert code == 0
        assert "cold index build:" in output
        assert "distinct_tokens" in output

    def test_index_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.json")
        code, output = run_cli(
            "--scale", "0.25", "index", "save", "--path", path
        )
        assert code == 0
        assert "saved index snapshot" in output
        code, output = run_cli(
            "--scale", "0.25", "index", "load", "--path", path
        )
        assert code == 0
        assert "loaded snapshot" in output
        assert "classification variant" in output

    def test_index_load_falls_back_to_legacy_default_path(
        self, tmp_path, monkeypatch
    ):
        # a pre-compression snapshot saved under the old default name
        # must still load when --path is omitted
        monkeypatch.chdir(tmp_path)
        code, __ = run_cli(
            "--scale", "0.25", "index", "save",
            "--path", "soda_index_snapshot.json",
        )
        assert code == 0
        code, output = run_cli("--scale", "0.25", "index", "load")
        assert code == 0
        assert "loaded snapshot soda_index_snapshot.json " in output

    def test_index_load_rejects_mismatched_snapshot(self, tmp_path):
        path = str(tmp_path / "snap.json")
        run_cli("--scale", "0.25", "index", "save", "--path", path)
        code, output = run_cli(
            "--scale", "0.1", "index", "load", "--path", path
        )
        assert code == 1
        assert "error:" in output

    def test_index_stats(self):
        code, output = run_cli("--scale", "0.25", "index", "stats")
        assert code == 0
        assert "classification_terms" in output
        assert "maintained_inserts" in output

    def test_snapshot_warm_start_search(self, tmp_path):
        path = str(tmp_path / "snap.json")
        run_cli("--scale", "0.25", "index", "save", "--path", path)
        cold_code, cold = run_cli(
            "--scale", "0.25", "search", "Zurich", "--no-execute"
        )
        warm_code, warm = run_cli(
            "--scale", "0.25", "--snapshot", path,
            "search", "Zurich", "--no-execute",
        )
        assert (cold_code, warm_code) == (0, 0)
        assert warm == cold


class TestSearchBatch:
    def test_batch_file(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("Zurich\nSara Guttinger\n\nZurich\n")
        code, output = run_cli(
            "--scale", "0.25", "search", "--batch", str(batch), "--no-execute"
        )
        assert code == 0
        assert "3 queries (2 unique)" in output
        assert output.count("'Zurich'") == 2

    def test_batch_missing_file(self):
        code, output = run_cli(
            "--scale", "0.25", "search", "--batch", "/nonexistent/q.txt"
        )
        assert code == 1
        assert "cannot read batch file" in output

    def test_batch_empty_file(self, tmp_path):
        batch = tmp_path / "empty.txt"
        batch.write_text("\n\n")
        code, output = run_cli(
            "--scale", "0.25", "search", "--batch", str(batch)
        )
        assert code == 1
        assert "no queries" in output

    def test_no_query_and_no_batch(self):
        code, output = run_cli("--scale", "0.25", "search")
        assert code == 2
        assert "provide a query or --batch" in output

    def test_experiments_batch_flag(self):
        code, output = run_cli("--scale", "0.25", "experiments", "--batch")
        assert code == 0
        assert "Table 4" in output

    def test_batch_with_explain(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("Zurich\n")
        code, output = run_cli(
            "--scale", "0.25", "search", "--batch", str(batch), "--explain"
        )
        assert code == 0
        assert "    | " in output and "scan" in output

    def test_query_and_batch_are_mutually_exclusive(self, tmp_path):
        batch = tmp_path / "queries.txt"
        batch.write_text("Zurich\n")
        code, output = run_cli(
            "--scale", "0.25", "search", "Zurich", "--batch", str(batch)
        )
        assert code == 2
        assert "not both" in output

    def test_experiments_honors_snapshot(self, tmp_path):
        path = str(tmp_path / "snap.json")
        run_cli("--scale", "0.25", "index", "save", "--path", path)
        code, output = run_cli(
            "--scale", "0.25", "--snapshot", path, "experiments"
        )
        assert code == 0
        assert "Table 4" in output


class TestObservabilityCli:
    def test_explain_analyze_annotates_actuals(self):
        code, output = run_cli(
            "--scale", "0.25", "explain", "--analyze",
            "SELECT currency_cd, count(*) FROM money_transactions "
            "GROUP BY currency_cd ORDER BY count(*) DESC LIMIT 3",
        )
        assert code == 0
        assert "(actual rows=" in output
        assert "self=" in output
        assert "[~" in output  # estimates stay alongside the actuals

    def test_explain_analyze_row_mode(self):
        code, output = run_cli(
            "--scale", "0.25", "--engine-config", "execution-mode=row",
            "explain", "--analyze",
            "SELECT count(*) FROM money_transactions",
        )
        assert code == 0
        assert "(actual rows=" in output
        assert "batches=" not in output

    def test_search_analyze_shows_actuals_under_statements(self):
        code, output = run_cli(
            "--scale", "0.25", "search", "Zurich", "--analyze"
        )
        assert code == 0
        assert "    | " in output
        assert "(actual rows=" in output

    def test_trace_renders_span_tree(self):
        code, output = run_cli("--scale", "0.25", "trace", "Zurich")
        assert code == 0
        assert "search [query='Zurich']" in output
        assert "step:lookup" in output
        assert "step:execute" in output
        assert "ms" in output

    def test_trace_json_is_parseable(self):
        import json

        code, output = run_cli(
            "--scale", "0.25", "trace", "--json", "--no-execute", "Zurich"
        )
        assert code == 0
        parsed = json.loads(output)
        assert parsed[0]["name"] == "search"
        names = [child["name"] for child in parsed[0]["children"]]
        assert "step:lookup" in names

    def test_stats_metrics_table(self):
        code, output = run_cli("--scale", "0.25", "stats", "--metrics")
        assert code == 0
        assert "plan_cache.capacity" in output
        assert "engine.rows_scanned" in output
        assert "serving.result_cache.invalidations" in output
        assert "serving.search.loop_hits" in output
        assert "serving.search.pool_calls" in output
        assert "lookup.memo.invalidations" in output
        assert "finbank warehouse:" not in output

    def test_stats_metrics_json(self):
        import json

        code, output = run_cli(
            "--scale", "0.25", "stats", "--metrics",
            "--metrics-format", "json",
        )
        assert code == 0
        parsed = json.loads(output)
        assert parsed["plan_cache.capacity"]["kind"] == "gauge"

    def test_stats_metrics_prometheus(self):
        code, output = run_cli(
            "--scale", "0.25", "stats", "--metrics",
            "--metrics-format", "prometheus",
        )
        assert code == 0
        assert "# TYPE repro_plan_cache_hits counter" in output
        assert "repro_plan_cache_capacity" in output


class TestDurableCli:
    def test_sql_data_dir_persists_across_invocations(self, tmp_path):
        data_dir = str(tmp_path / "db")
        code, output = run_cli(
            "sql", "--data-dir", data_dir,
            "CREATE TABLE t (id INT, label TEXT)",
            "INSERT INTO t VALUES (1, 'alpha'), (2, 'beta')",
        )
        assert code == 0
        code, output = run_cli(
            "sql", "--data-dir", data_dir,
            "SELECT label FROM t ORDER BY id",
        )
        assert code == 0
        assert "alpha" in output and "beta" in output

    def test_sql_data_dir_transactions(self, tmp_path):
        data_dir = str(tmp_path / "db")
        code, output = run_cli(
            "sql", "--data-dir", data_dir,
            "CREATE TABLE t (id INT)",
            "INSERT INTO t VALUES (1)",
            "BEGIN",
            "INSERT INTO t VALUES (2)",
            "ROLLBACK",
            "SELECT count(*) FROM t",
        )
        assert code == 0
        assert "1" in output
        code, output = run_cli("recover", data_dir)
        assert code == 0
        assert "1 row(s)" in output
        assert "2 WAL record(s) replayed" in output

    def test_recover_reports_summary(self, tmp_path):
        data_dir = str(tmp_path / "db")
        run_cli(
            "sql", "--data-dir", data_dir,
            "CREATE TABLE t (id INT)",
            "INSERT INTO t VALUES (1), (2)",
        )
        code, output = run_cli("recover", data_dir, "--checkpoint")
        assert code == 0
        assert "generation" in output
        assert "replayed" in output
        # a second recover starts from the checkpoint written above
        code, output = run_cli("recover", data_dir)
        assert code == 0
        assert "checkpoint loaded" in output
        assert "0 WAL record(s) replayed" in output

    def test_recover_corrupt_wal_exits_nonzero(self, tmp_path):
        import os

        data_dir = str(tmp_path / "db")
        run_cli(
            "sql", "--data-dir", data_dir,
            "CREATE TABLE t (id INT)",
            "INSERT INTO t VALUES (1), (2)",
        )
        wal = os.path.join(data_dir, "wal.0.log")
        with open(wal, "r+b") as handle:
            handle.seek(12)
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        code, output = run_cli("recover", data_dir)
        assert code == 1
        assert "error:" in output


class TestRecoverFailurePaths:
    """`repro recover` on damaged directories: structured, no traceback."""

    def _seed(self, tmp_path, *, checkpoint=False):
        data_dir = str(tmp_path / "db")
        code, __ = run_cli(
            "sql", "--data-dir", data_dir,
            "CREATE TABLE t (id INT)",
            "INSERT INTO t VALUES (1), (2), (3)",
        )
        assert code == 0
        if checkpoint:
            code, __ = run_cli("recover", data_dir, "--checkpoint")
            assert code == 0
        return data_dir

    def test_midlog_wal_corruption_prints_wal_kind(self, tmp_path):
        import os

        data_dir = self._seed(tmp_path)
        wal = os.path.join(data_dir, "wal.0.log")
        with open(wal, "r+b") as handle:
            # flip a byte inside the *first* record: damage followed by
            # valid records is mid-log corruption and must be a hard
            # RecoveryError (only a torn final record may be truncated)
            handle.seek(12)
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        code, output = run_cli("recover", data_dir)
        assert code == 1
        assert "error: recovery failed" in output
        assert "[wal]" in output  # the machine-readable failure kind
        assert "wal.0.log" in output  # ...and the offending file
        assert "Traceback" not in output

    def test_corrupt_checkpoint_prints_checkpoint_kind(self, tmp_path):
        import os

        data_dir = self._seed(tmp_path, checkpoint=True)
        checkpoint = os.path.join(data_dir, "checkpoint.json.gz")
        assert os.path.exists(checkpoint)
        with open(checkpoint, "wb") as handle:
            handle.write(b"this is not a gzip checkpoint")
        code, output = run_cli("recover", data_dir)
        assert code == 1
        assert "error: recovery failed" in output
        assert "[checkpoint]" in output
        assert "checkpoint.json.gz" in output
        assert "Traceback" not in output

    def test_truncated_checkpoint_prints_checkpoint_kind(self, tmp_path):
        import os

        data_dir = self._seed(tmp_path, checkpoint=True)
        checkpoint = os.path.join(data_dir, "checkpoint.json.gz")
        size = os.path.getsize(checkpoint)
        with open(checkpoint, "r+b") as handle:
            handle.truncate(size // 2)
        code, output = run_cli("recover", data_dir)
        assert code == 1
        assert "[checkpoint]" in output
        assert "Traceback" not in output
