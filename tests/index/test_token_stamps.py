"""Per-token change stamps of the inverted index (`unchanged_since`).

The contract every dependency stamp leans on: for a tick read *before*
a mutation, `unchanged_since(tick, tokens)` is False for every token
the mutation touched.  False positives ("changed" when nothing did) are
allowed — a count-only change, a folded stamp, a whole-index change —
false negatives never.
"""

import random

import pytest

from repro.index import inverted as inverted_module
from repro.index.inverted import InvertedIndex, tokenize_text


@pytest.fixture
def index():
    built = InvertedIndex()
    built.add("orgs", "org_nm", "Credit Suisse")
    built.add("orgs", "org_nm", "Alpine Trading AG")
    built.add("adr", "city", "Zurich")
    return built


class TestUnchangedSince:
    def test_untouched_tokens_stay_unchanged(self, index):
        tick = index.version
        index.add("adr", "city", "Basel")
        assert index.unchanged_since(tick, ("zurich", "credit", "suisse"))
        assert index.unchanged_since(tick, ("never", "indexed"))
        assert not index.unchanged_since(tick, ("basel",))
        assert not index.unchanged_since(tick, ("zurich", "basel"))

    def test_remove_touches_every_token_of_the_value(self, index):
        tick = index.version
        index.remove("orgs", "org_nm", "Credit Suisse")
        assert not index.unchanged_since(tick, ("credit",))
        assert not index.unchanged_since(tick, ("suisse",))
        assert index.unchanged_since(tick, ("alpine", "zurich"))
        assert index.unchanged_since(index.version, ("credit", "suisse"))

    def test_a_count_only_change_touches_the_token(self, index):
        # a second row storing 'Zurich' changes no posting set, only the
        # occurrence count a cached posting list carries
        tick = index.version
        index.add("adr", "city", "Zurich")
        assert not index.unchanged_since(tick, ("zurich",))
        tick = index.version
        index.remove("adr", "city", "Zurich")
        assert not index.unchanged_since(tick, ("zurich",))

    def test_token_reuse_after_delete_and_reinsert(self, index):
        before_delete = index.version
        index.remove("adr", "city", "Zurich")
        between = index.version
        index.add("adr", "city", "Zurich")
        # the postings are what they were, the stamps still say "changed"
        assert not index.unchanged_since(before_delete, ("zurich",))
        assert not index.unchanged_since(between, ("zurich",))
        assert index.unchanged_since(index.version, ("zurich",))

    def test_remove_table_raises_the_floor_for_every_token(self, index):
        tick = index.version
        index.remove_table("adr")
        # a whole-index change: even tokens the table never held
        assert not index.unchanged_since(tick, ("credit",))
        assert not index.unchanged_since(tick, ())
        assert index.unchanged_since(index.version, ("credit", "zurich"))
        tick = index.version
        index.remove_table("no_such_table")  # changes nothing, ticks nothing
        assert index.version == tick
        assert index.unchanged_since(tick, ("credit",))

    def test_a_built_or_loaded_index_validates_from_its_own_version(self, index):
        restored = InvertedIndex.from_dict(index.to_dict())
        assert restored.unchanged_since(restored.version, ("zurich",))
        restored.add("adr", "city", "Zurich")
        assert not restored.unchanged_since(0, ("zurich",))


class TestPhraseCacheIsTokenScoped:
    def test_a_write_keeps_phrase_entries_it_did_not_touch(self, index):
        index.lookup_phrase("Credit Suisse")
        index.lookup_phrase("Zurich")
        kept = index._phrase_cache["credit suisse"]
        index.add("adr", "city", "Zurich")
        assert [p.occurrences for p in index.lookup_phrase("Zurich")] == [2]
        index.lookup_phrase("Credit Suisse")
        assert index._phrase_cache["credit suisse"] is kept  # not recomputed
        assert index._phrase_cache["zurich"][0] == index.version

    def test_a_miss_is_cached_and_dropped_when_its_token_appears(self, index):
        assert index.lookup_phrase("Geneva") == []
        assert index._phrase_cache["geneva"][1] == []
        index.add("adr", "city", "Geneva")
        assert [p.value for p in index.lookup_phrase("geneva")] == ["Geneva"]


class TestReadersTakeNoLock:
    def test_a_half_done_add_or_remove_is_skipped_not_raised(self, index):
        # what a reader thread sees between the two stores of add() /
        # remove(): the posting is there, the value's row count is not
        tick = index.version
        del index._value_counts[("adr", "city", "Zurich")]
        assert index.lookup_phrase("Zurich") == []
        # the writer finishes (remove() ticks last): the torn read's
        # cache entry carries the earlier tick and is not served
        index._value_counts[("adr", "city", "Zurich")] = 1
        index.remove("adr", "city", "Zurich")
        assert not index.unchanged_since(tick, ("zurich",))
        index.add("adr", "city", "Zurich")
        assert [p.value for p in index.lookup_phrase("Zurich")] == ["Zurich"]


class TestHaystackCacheDoesNotLeak:
    def test_insert_delete_cycles_of_probed_values(self, index):
        # regression: remove() dropped the posting but left the value's
        # tokenized haystack behind — one tuple per value, for ever
        index.lookup_phrase("Credit Suisse")
        size = len(index._haystack_cache)
        for serial in range(50):
            value = f"Credit Suisse Branch {serial}"
            index.add("orgs", "org_nm", value)
            assert len(index.lookup_phrase("Credit Suisse")) == 2
            index.remove("orgs", "org_nm", value)
        assert len(index._haystack_cache) == size

    def test_a_value_other_rows_still_store_keeps_its_haystack(self, index):
        index.add("adr", "city", "Zurich")
        index.lookup_phrase("Zurich")
        index.remove("adr", "city", "Zurich")
        assert ("adr", "city", "Zurich") in index._haystack_cache


class TestFolding:
    """The per-token map is bounded; folding only loses precision safely."""

    WORDS = [f"w{n}" for n in range(40)]

    def test_the_map_is_bounded_by_the_constant(self, monkeypatch):
        monkeypatch.setattr(inverted_module, "MAX_TOKEN_STAMPS", 16)
        index = InvertedIndex()
        for word in self.WORDS * 3:
            index.add("t", "c", word)
            assert len(index._touched) <= 16
        assert index._floor > 0

    def test_the_default_bound_is_a_constant(self):
        assert inverted_module.MAX_TOKEN_STAMPS == 8192

    @pytest.mark.parametrize("seed", range(5))
    def test_folding_only_turns_unchanged_into_changed(self, monkeypatch, seed):
        # reference: the exact, unbounded token -> last-change map
        monkeypatch.setattr(inverted_module, "MAX_TOKEN_STAMPS", 8)
        rng = random.Random(seed)
        index = InvertedIndex()
        last_change: dict = {}
        stored: list = []
        folded_answers = 0
        for __ in range(300):
            if stored and rng.random() < 0.4:
                value = stored.pop(rng.randrange(len(stored)))
                index.remove("t", "c", value)
            else:
                value = " ".join(rng.sample(self.WORDS, rng.randint(1, 3)))
                index.add("t", "c", value)
                stored.append(value)
            for token in tokenize_text(value):
                last_change[token] = index.version
            for tick in range(index.version + 1):
                for token in rng.sample(self.WORDS, 4):
                    exact = last_change.get(token, 0) <= tick
                    if index.unchanged_since(tick, (token,)):
                        assert exact, (tick, token)
                    elif exact:
                        folded_answers += 1
                    if tick >= index._floor:  # at or above the floor: exact
                        assert index.unchanged_since(tick, (token,)) == exact
        assert folded_answers  # the bound did cost old stamps precision
