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
        assert config.execution_mode == "batch"
        assert config.dict_encoding_threshold is None
        assert config.fused is True
        assert config.parallel_workers == 1
        assert config.array_store is False
        assert config.segment_rows == 0  # flat storage unless asked

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().fused = False

    def test_validation_mirrors_the_engine_errors(self):
        with pytest.raises(SqlExecutionError, match="plan_cache_size"):
            EngineConfig(plan_cache_size=-1)
        with pytest.raises(SqlExecutionError, match="execution mode"):
            EngineConfig(execution_mode="turbo")
        with pytest.raises(SqlExecutionError, match="parallel_workers"):
            EngineConfig(parallel_workers=0)
        with pytest.raises(SqlExecutionError, match="fused"):
            EngineConfig(fused="yes")
        with pytest.raises(SqlCatalogError, match="dict_encoding_threshold"):
            EngineConfig(dict_encoding_threshold=-2)
        with pytest.raises(SqlCatalogError, match="array_store"):
            EngineConfig(array_store=1)
        with pytest.raises(SqlCatalogError, match="segment_rows"):
            EngineConfig(segment_rows=-8)

    def test_replace_and_as_dict_round_trip(self):
        config = EngineConfig().replace(parallel_workers=4, segment_rows=64)
        assert config.parallel_workers == 4
        assert EngineConfig(**config.as_dict()) == config


class TestFromCli:
    def test_parses_every_field_with_dash_aliases(self):
        config = EngineConfig.from_cli(
            "plan-cache-size=16,execution-mode=row,"
            "dict-encoding-threshold=none,fused=off,parallel-workers=4,"
            "array-store=true,segment-rows=512"
        )
        assert config == EngineConfig(
            plan_cache_size=16,
            execution_mode="row",
            dict_encoding_threshold=None,
            fused=False,
            parallel_workers=4,
            array_store=True,
            segment_rows=512,
        )

    def test_overrides_a_base_field_by_field(self):
        base = EngineConfig(segment_rows=DEFAULT_SEGMENT_ROWS)
        config = EngineConfig.from_cli("parallel-workers=2", base=base)
        assert config.segment_rows == DEFAULT_SEGMENT_ROWS
        assert config.parallel_workers == 2

    def test_unknown_key_lists_the_valid_ones(self):
        with pytest.raises(SqlExecutionError, match="segment_rows"):
            EngineConfig.from_cli("segmnet-rows=4")

    def test_bad_value_surfaces_the_field_error(self):
        with pytest.raises(SqlExecutionError, match="parallel_workers"):
            EngineConfig.from_cli("parallel-workers=99")


class TestDatabaseConfig:
    def test_database_accepts_a_config(self):
        db = Database(config=EngineConfig(parallel_workers=2, fused=False))
        assert db.config.parallel_workers == 2
        assert db.config.fused is False

    def test_config_is_the_one_passed(self):
        config = EngineConfig(execution_mode="row", plan_cache_size=4)
        db = Database(config=config)
        assert db.config is config
        assert db.planner.config is config
        assert db.planner.cache.capacity == 4
        db.execute("CREATE TABLE t (id INT)")
        assert "[row]" in db.explain("SELECT id FROM t")

    def test_plain_database_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Database()
            Database(config=EngineConfig(segment_rows=16))

    def test_segment_rows_reaches_the_catalog(self):
        db = Database(config=EngineConfig(segment_rows=16))
        db.execute("CREATE TABLE t (id INT)")
        assert db.table("t").segmented
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
            "--engine-config", "segment-rows=256,parallel-workers=2",
            "sql", "SELECT COUNT(*) FROM addresses",
        )
        assert code == 0
        assert "row(s)" in output

    def test_bad_engine_config_is_a_clean_error(self):
        code, output = self._run(
            "--scale", "0.2", "--engine-config", "bogus=1",
            "sql", "SELECT 1",
        )
        assert code == 2
        assert "error:" in output

    def test_engine_config_reaches_a_durable_database(self, tmp_path):
        code, output = self._run(
            "--engine-config", "execution-mode=row,fused=false",
            "sql", "--data-dir", str(tmp_path / "d"),
            "CREATE TABLE t (id INT)", "INSERT INTO t VALUES (7)",
            "SELECT id FROM t",
        )
        assert code == 0
        assert output.splitlines()[-2:] == ["7", "1 row(s)"]

    def test_engine_fields_have_no_flags_of_their_own(self):
        # a field spelled as a flag of its own is a usage error (exit 2)
        valid = EngineConfig(execution_mode="row").as_dict()
        for name, value in valid.items():
            flag = "--" + name.replace("_", "-")
            with pytest.raises(SystemExit) as exit_info:
                self._run(flag, str(value).lower(), "sql", "SELECT 1")
            assert exit_info.value.code == 2, flag
