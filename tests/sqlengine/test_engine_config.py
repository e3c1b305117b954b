"""EngineConfig: the one way to configure the engine.

One frozen dataclass holds every engine setting of a ``Database``;
``Database(config=...)`` is the only library spelling, ``Database.config``
returns the config the database was built with, and
``EngineConfig.from_cli`` parses ``--engine-config key=value[,...]``,
the only CLI spelling.
"""

import dataclasses
import io
import warnings

import pytest

from repro.errors import SqlCatalogError, SqlExecutionError
from repro.sqlengine.config import DEFAULT_SEGMENT_ROWS, EngineConfig
from repro.sqlengine.database import Database


class TestEngineConfig:
    def test_defaults_match_the_legacy_knob_defaults(self):
        config = EngineConfig()
        assert config.plan_cache_size == 128
        assert config.segment_rows == DEFAULT_SEGMENT_ROWS == 4096
        assert config.request_timeout_ms is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().segment_rows = 64

    def test_validation_mirrors_the_engine_errors(self):
        with pytest.raises(SqlExecutionError, match="plan_cache_size"):
            EngineConfig(plan_cache_size=-1)
        with pytest.raises(SqlExecutionError, match="request_timeout_ms"):
            EngineConfig(request_timeout_ms=0)
        with pytest.raises(SqlCatalogError, match="segment_rows"):
            EngineConfig(segment_rows=-8)
        # every table is segmented: there is no flat layout to ask for
        with pytest.raises(SqlCatalogError, match="segment_rows .* >= 1"):
            EngineConfig(segment_rows=0)

    def test_replace_and_as_dict_round_trip(self):
        config = EngineConfig().replace(plan_cache_size=0, segment_rows=64)
        assert config.plan_cache_size == 0
        assert EngineConfig(**config.as_dict()) == config


class TestRemovedKnobs:
    """Removed knobs are gone, not defaulted off: ``parallel_workers``,
    ``array_store``, ``execution_mode`` (one engine), ``fused`` (fusion
    always) and ``dict_encoding_threshold`` (no dictionary encoding)."""

    FIELDS = [
        "plan_cache_size",
        "request_timeout_ms",
        "segment_rows",
    ]

    def test_removed_knobs_raise_and_three_keys_remain(self):
        assert sorted(EngineConfig().as_dict()) == self.FIELDS
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "plan_cache_size", "segment_rows", "request_timeout_ms",
        ]
        for knob, value in (
            ("array_store", True),
            ("parallel_workers", 2),
            ("execution_mode", "row"),
            ("fused", False),
            ("dict_encoding_threshold", 0),
        ):
            with pytest.raises(TypeError, match=knob):
                EngineConfig(**{knob: value})
        for spec, key in (
            ("parallel-workers=4", "parallel_workers"),
            ("execution-mode=row", "execution_mode"),
            ("fused=false", "fused"),
            ("dict-encoding-threshold=0", "dict_encoding_threshold"),
        ):
            with pytest.raises(SqlExecutionError) as info:
                EngineConfig.from_cli(spec)
            message = str(info.value)
            assert f"'{key}'" in message
            listed = message.split("choose from ", 1)[1].rstrip(")")
            assert listed.split(", ") == self.FIELDS


class TestFromCli:
    def test_parses_every_field_with_dash_aliases(self):
        config = EngineConfig.from_cli(
            "plan-cache-size=16,segment-rows=512,request-timeout-ms=250"
        )
        assert config == EngineConfig(
            plan_cache_size=16, segment_rows=512, request_timeout_ms=250
        )
        assert EngineConfig.from_cli(
            "request-timeout-ms=none", base=config
        ).request_timeout_ms is None

    def test_overrides_a_base_field_by_field(self):
        base = EngineConfig(segment_rows=64)
        config = EngineConfig.from_cli("plan-cache-size=0", base=base)
        assert config.segment_rows == 64
        assert config.plan_cache_size == 0

    def test_unknown_key_lists_the_valid_ones(self):
        with pytest.raises(SqlExecutionError, match="segment_rows"):
            EngineConfig.from_cli("segmnet-rows=4")

    def test_bad_value_surfaces_the_field_error(self):
        with pytest.raises(SqlExecutionError, match="plan_cache_size"):
            EngineConfig.from_cli("plan-cache-size=-1")
        with pytest.raises(SqlExecutionError, match="expects an integer"):
            EngineConfig.from_cli("segment-rows=none")


class TestDatabaseConfig:
    def test_database_accepts_a_config(self):
        db = Database(config=EngineConfig(segment_rows=32, plan_cache_size=0))
        assert db.config.segment_rows == 32
        assert db.config.plan_cache_size == 0

    def test_config_is_the_one_passed(self):
        config = EngineConfig(segment_rows=8, plan_cache_size=4)
        db = Database(config=config)
        assert db.config is config
        assert db.planner.config is config
        assert db.planner.cache.capacity == 4

    def test_plain_database_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Database()
            Database(config=EngineConfig(segment_rows=16))

    def test_segment_rows_reaches_the_catalog(self):
        db = Database(config=EngineConfig(segment_rows=16))
        db.execute("CREATE TABLE t (id INT)")
        db.insert_rows("t", [(i,) for i in range(40)])
        assert db.table("t").segment_stats()["segments"] == 2
        assert db.catalog.segment_rows == 16


class TestCliFlag:
    def _run(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_engine_config_flag_round_trips(self):
        code, output = self._run(
            "--scale", "0.2",
            "--engine-config", "segment-rows=256,plan-cache-size=0",
            "sql", "SELECT COUNT(*) FROM addresses",
        )
        assert code == 0
        assert "row(s)" in output

    def test_zero_segment_rows_is_rejected(self):
        code, output = self._run(
            "--scale", "0.2", "--engine-config", "segment-rows=0",
            "sql", "SELECT 1",
        )
        assert code == 2
        assert "segment_rows must be an integer >= 1, got 0" in output

    def test_bad_engine_config_is_a_clean_error(self):
        code, output = self._run(
            "--scale", "0.2", "--engine-config", "bogus=1",
            "sql", "SELECT 1",
        )
        assert code == 2
        assert "error:" in output

    def test_engine_config_reaches_a_durable_database(self, tmp_path):
        code, output = self._run(
            "--engine-config", "segment-rows=64,plan-cache-size=0",
            "sql", "--data-dir", str(tmp_path / "d"),
            "CREATE TABLE t (id INT)", "INSERT INTO t VALUES (7)",
            "SELECT id FROM t",
        )
        assert code == 0
        assert output.splitlines()[-2:] == ["7", "1 row(s)"]

    def test_engine_fields_have_no_flags_of_their_own(self):
        # a field spelled as a flag of its own is a usage error (exit 2)
        valid = EngineConfig(segment_rows=64).as_dict()
        for name, value in valid.items():
            flag = "--" + name.replace("_", "-")
            with pytest.raises(SystemExit) as exit_info:
                self._run(flag, str(value).lower(), "sql", "SELECT 1")
            assert exit_info.value.code == 2, flag
