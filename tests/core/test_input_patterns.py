"""Tests for the input pattern parser (paper Section 4.2.2 / 4.3)."""

import datetime

import pytest

from repro.core.input_patterns import parse_query
from repro.errors import QueryParseError


class TestKeywords:
    def test_plain_keywords(self):
        query = parse_query("private customers Switzerland")
        assert query.keywords == (("private", "customers", "switzerland"),)

    def test_and_splits_word_runs(self):
        query = parse_query("salary and birthday")
        assert query.keywords == (("salary",), ("birthday",))
        assert query.connectors == ("and",)

    def test_or_recorded(self):
        query = parse_query("customers or clients")
        assert query.connectors == ("or",)

    def test_case_normalised(self):
        query = parse_query("Credit SUISSE")
        assert query.keywords == (("credit", "suisse"),)

    def test_empty_raises(self):
        with pytest.raises(QueryParseError):
            parse_query("   ")


class TestComparisons:
    def test_paper_query2(self):
        # paper Section 4.4.1, Query 2
        query = parse_query("salary >= x and birthday = date(1981-04-23)")
        assert len(query.comparisons) == 2
        first, second = query.comparisons
        assert first.left_words == ("salary",)
        assert first.op == ">="
        assert first.value == "x"
        assert second.left_words == ("birthday",)
        assert second.value == datetime.date(1981, 4, 23)

    def test_numeric_value(self):
        query = parse_query("salary >= 100000")
        assert query.comparisons[0].value == 100000

    def test_float_value(self):
        query = parse_query("rate < 1.5")
        assert query.comparisons[0].value == 1.5

    def test_date_operator(self):
        query = parse_query("trade order period > date(2011-09-01)")
        comparison = query.comparisons[0]
        assert comparison.left_words == ("trade", "order", "period")
        assert comparison.value == datetime.date(2011, 9, 1)

    def test_like_operator(self):
        query = parse_query("family name like gutt")
        assert query.comparisons[0].op == "like"
        assert query.comparisons[0].value == "gutt"

    def test_missing_value_raises(self):
        with pytest.raises(QueryParseError):
            parse_query("salary >=")

    def test_quoted_value(self):
        query = parse_query('city = "New York"')
        assert query.comparisons[0].value == "New York"


class TestRanges:
    def test_between_dates(self):
        # paper Section 4.4.2, variant a)
        query = parse_query(
            "transaction date between date(2010-01-01) date(2010-12-31)"
        )
        range_ = query.ranges[0]
        assert range_.left_words == ("transaction", "date")
        assert range_.low == datetime.date(2010, 1, 1)
        assert range_.high == datetime.date(2010, 12, 31)

    def test_between_numbers(self):
        query = parse_query("salary between 50000 100000")
        assert query.ranges[0].low == 50000
        assert query.ranges[0].high == 100000


class TestAggregations:
    def test_sum_with_group_by(self):
        # paper Query 3
        query = parse_query("sum (amount) group by (transaction date)")
        assert query.aggregations[0].func == "sum"
        assert query.aggregations[0].argument == "amount"
        assert query.group_by == ("transaction date",)

    def test_count_entity_group_by(self):
        # paper Query 4
        query = parse_query("count (transactions) group by (company name)")
        assert query.aggregations[0].argument == "transactions"
        assert query.group_by == ("company name",)

    def test_count_empty_parens(self):
        # paper Q9.0: "select count() private customers Switzerland"
        query = parse_query("select count() private customers Switzerland")
        assert query.aggregations[0].func == "count"
        assert query.aggregations[0].argument is None
        assert query.keywords == (("private", "customers", "switzerland"),)

    def test_select_keyword_swallowed(self):
        query = parse_query("select count() parties")
        assert all("select" not in words for words in query.keywords)

    def test_group_by_multiple_attributes(self):
        query = parse_query("sum(amount) group by (currency, status)")
        assert query.group_by == ("currency", "status")

    def test_has_aggregation(self):
        assert parse_query("sum(amount)").has_aggregation
        assert not parse_query("customers").has_aggregation


class TestTopN:
    def test_top_n_parsed(self):
        # paper Section 4.4.2
        query = parse_query("Top 10 trading volume customer")
        assert query.top_n == 10
        assert ("trading", "volume", "customer") in query.keywords

    def test_top_with_explicit_aggregate(self):
        query = parse_query(
            "Top 10 sum(amount) customer transaction date "
            "between date(1980-01-01) date(1990-01-01)"
        )
        assert query.top_n == 10
        assert query.aggregations[0].func == "sum"
        assert query.ranges


class TestDescribe:
    def test_describe_mentions_everything(self):
        query = parse_query(
            "top 5 sum(amount) customers salary >= 100 group by (currency)"
        )
        description = query.describe()
        assert "top 5" in description
        assert "sum(amount)" in description
        assert "group by (currency)" in description
        assert ">=" in description

    def test_describe_mentions_a_range(self):
        query = parse_query("salary between 50000 100000")
        assert query.describe() == "salary between 50000 100000"
