"""Seeded input generators for the four ledger workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical request sequences (``sequence_digest`` goes into every
result so a comparison can check both sides ran the same inputs).

The distinct inputs (keyword texts and their popularity ranks, SQL
templates, the facts/dims dataset, the write cycles) are fixed by
``UNIVERSE_SEED`` and not by the run's seed: one golden file per
workload then covers every seed, and every seed costs the same work.
(A seed that also chose *which* texts are popular moved ``ops_per_s``
by 2x between seeds, far more than any bound.)  The run's seed decides
the order in which requests arrive, ``--seconds`` how many there are
(``scaled``).  The program under test only ever sees the generated
inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

#: fixes the universes of distinct inputs (not the run's --seed)
UNIVERSE_SEED = 20120827

WORKLOADS = (
    "explore_http_ro",
    "explore_http_rw",
    "sqlgen_schema_cold",
    "engine_ingest_mix",
)

#: why each workload exists; printed by the runner, quoted by the README
WHY = {
    "explore_http_ro": (
        "read-only keyword searches over HTTP, Zipf-popular texts from a "
        "pool larger than the result cache: the head is served by the "
        "result cache, the tail runs pipeline + executor"
    ),
    "explore_http_rw": (
        "the same searches with a write every 10th request on one "
        "connection: each write flushes the result cache and invalidates "
        "plans, so the pipeline, planner and executor carry the load"
    ),
    "sqlgen_schema_cold": (
        "distinct keyword texts over the paper's 472-table schema, SQL "
        "generation only: graph traversal in core.tables dominates and "
        "the SQL engine does nothing"
    ),
    "engine_ingest_mix": (
        "the SQL engine alone, durable: bulk ingest, then SELECT templates "
        "interleaved with UPDATE/DELETE/INSERT, checkpoint and reopen: "
        "the SODA pipeline does nothing"
    ),
}


#: the ``--seconds`` the counts below are sized for: there, at the commit
#: that added the ledger, a repetition measures for about a third of it
CALIBRATED_SECONDS = 21


def scaled(count: int, seconds: float) -> int:
    """The length of a fixed sequence for a run of ``--seconds`` *seconds*.

    A run's work is a function of ``--seconds`` and not of the speed of
    the program under test, so both sides of a comparison do identical
    work; a faster program finishes it sooner.
    """
    return max(1, round(count * seconds / CALIBRATED_SECONDS))


@dataclass(frozen=True)
class Sizes:
    """Everything that scales a workload; ``SMOKE`` is ~1/100 of ``FULL``.
    Counts marked (scaled) are per repetition at ``CALIBRATED_SECONDS``."""

    #: distinct keyword texts an HTTP run draws from (result cache: 64)
    http_pool: int
    #: requests per connection (scaled); a write costs more than a search
    http_ro_requests: int
    http_rw_requests: int
    #: ``GET /healthz`` probes of a traced HTTP run
    floor_probes: int
    #: share of Table 1's schema (1.0 = 472 tables, ~30k triples)
    schema_factor: float
    schema_rows_per_table: int
    #: distinct texts that have a golden; a run issues a prefix of them
    schema_universe: int
    #: distinct texts of a sqlgen_schema_cold run, each issued once (scaled)
    schema_texts: int
    facts: int
    ingest_batch: int
    #: iterations of engine_ingest_mix (scaled), and how many have a golden
    engine_iterations: int
    engine_golden_iterations: int
    #: an untraced run is this many times set-up + load, each in a fresh
    #: process under test; setup_s and peak_rss_mb are the medians
    repetitions: int
    reopens: int


FULL = Sizes(
    http_pool=160,
    http_ro_requests=2400,
    http_rw_requests=1200,
    floor_probes=200,
    schema_factor=1.0,
    schema_rows_per_table=20,
    schema_universe=240,
    schema_texts=150,
    facts=100_000,
    ingest_batch=5000,
    engine_iterations=16,
    engine_golden_iterations=96,
    repetitions=3,
    reopens=5,
)

SMOKE = Sizes(
    http_pool=70,
    http_ro_requests=24,
    http_rw_requests=24,
    floor_probes=20,
    schema_factor=0.05,
    schema_rows_per_table=5,
    schema_universe=24,
    schema_texts=12,
    facts=2000,
    ingest_batch=500,
    engine_iterations=12,
    engine_golden_iterations=24,
    repetitions=1,
    reopens=2,
)

#: every WRITE_EVERY-th request of connection 0 is a write (explore_http_rw)
WRITE_EVERY = 10

ZIPF_EXPONENT = 1.1


def sequence_digest(items) -> str:
    """Digest of a generated request sequence (JSON-serialisable items)."""
    blob = json.dumps(list(items), sort_keys=True, default=list).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def text_key(text: str) -> str:
    """The golden-file key of one distinct input."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# explore_http_*: keyword texts over the minibank vocabulary
# ----------------------------------------------------------------------
def http_pool(warehouse, size: int) -> list:
    """The distinct keyword texts of an HTTP run, most popular first.

    The Table-2 texts of the paper and entity / entity+attribute /
    bare-value / entity+base-value texts built from the vocabulary of
    *warehouse* (the minibank the server under test also builds), in a
    fixed shuffled order; a smaller pool is a prefix of a larger one.
    """
    from repro.experiments.workload import WORKLOAD

    rng = random.Random(UNIVERSE_SEED)
    definition = warehouse.definition
    texts = [query.text for query in WORKLOAD]

    entities = []
    for entity in definition.logical_entities:
        label = entity.label or entity.name.lower()
        entities.append((label, entity.attributes))
    for ontology in definition.ontologies:
        for term in ontology.terms:
            if term.filter is None and term.aggregation is None:
                entities.append((term.term, ()))
    labels = [label for label, __ in entities]
    texts += labels
    texts += [
        f"{label} {attribute}"
        for label, attributes in entities
        for attribute in attributes
    ]

    values = set()
    database = warehouse.database
    for table_name in database.table_names():
        table = database.table(table_name)
        for position, column in enumerate(table.columns):
            if column.sql_type.name != "TEXT" or column.name.endswith("_cd"):
                continue
            values.update(
                row[position] for row in table.rows if row[position]
            )
    values = sorted(values)
    rng.shuffle(values)
    texts += values[:50]
    texts += [f"{rng.choice(labels)} {value}" for value in values[50:100]]
    texts = list(dict.fromkeys(texts))
    rng.shuffle(texts)
    if len(texts) < size:
        raise ValueError(f"vocabulary yields only {len(texts)} texts")
    return texts[:size]


def zipf_sequence(rng: random.Random, pool: list, count: int) -> list:
    """*count* draws from *pool*, rank r with weight 1 / r**ZIPF_EXPONENT."""
    cumulative = list(
        accumulate(1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(pool) + 1))
    )
    total = cumulative[-1]
    return [
        pool[bisect_left(cumulative, rng.random() * total)]
        for __ in range(count)
    ]


def write_statement(step: int) -> str:
    """The *step*-th write of explore_http_rw: INSERT, UPDATE, DELETE of
    one row of the six-row ``currencies`` table, cycling, so the table
    stays small.  Written values are single letter-only tokens no pool
    text contains, so the generated SQL of every search stays the same."""
    row = step // 3
    code = "QZ" + "".join(chr(ord("A") + row // 26 ** i % 26) for i in range(3))
    kind = step % 3
    if kind == 0:
        return f"INSERT INTO currencies VALUES ('{code}', 'qzx{code.lower()}')"
    if kind == 1:
        return (
            f"UPDATE currencies SET currency_nm = 'qzy{code.lower()}' "
            f"WHERE currency_cd = '{code}'"
        )
    return f"DELETE FROM currencies WHERE currency_cd = '{code}'"


def http_requests(pool: list, seed: int, repetition: int, count: int,
                  writes: bool) -> list:
    """The request sequence of each of the two connections, *count* long.

    A request is ``("search", text)`` or ``("sql", statement)``.  Which
    texts a repetition asks for, and how often each, is a fixed Zipf
    draw; the seed shuffles them over the two connections' positions,
    so every seed asks for the same work in another order.  Every
    ``WRITE_EVERY``-th request of connection 0 is a write when *writes*.
    """
    write_slots = range(WRITE_EVERY - 1, count, WRITE_EVERY) if writes else ()
    texts = zipf_sequence(
        random.Random(f"{UNIVERSE_SEED}/{repetition}"), pool,
        2 * count - len(write_slots),
    )
    random.Random(f"{seed}/{repetition}").shuffle(texts)
    searches = iter([("search", text) for text in texts])
    first = [next(searches) for __ in range(count - len(write_slots))]
    for step, index in enumerate(write_slots):  # ascending: slots stay put
        first.insert(index, ("sql", write_statement(step)))
    return [first, list(searches)]


# ----------------------------------------------------------------------
# sqlgen_schema_cold: keyword texts over the synthetic Table-1 schema
# ----------------------------------------------------------------------
def schema_texts(definition, universe: int, count: int, seed: int) -> list:
    """The *count* distinct texts of a run, in the seed's issue order.

    The texts themselves do not depend on the seed: the first *count* of
    a fixed order of *universe* entity labels, attribute labels,
    entity+entity and entity+attribute texts from the synthetic schema's
    own vocabulary, in fixed proportions.  Every seed issues the same
    texts, whose costs differ 100-fold, so every seed costs the same.
    """
    rng = random.Random(UNIVERSE_SEED)
    entities = [
        entity.label or entity.name.replace("_", " ").lower()
        for entity in definition.logical_entities
    ]
    attributes = sorted(
        {a for entity in definition.logical_entities for a in entity.attributes}
    )
    texts = dict.fromkeys(
        rng.sample(entities, min(len(entities), universe * 2 // 5))
    )
    texts.update(dict.fromkeys(
        rng.sample(attributes, min(len(attributes), universe * 3 // 20))
    ))
    while len(texts) < universe:
        other = rng.choice(entities if len(texts) % 2 else attributes)
        texts[f"{rng.choice(entities)} {other}"] = None
    texts = list(texts)
    rng.shuffle(texts)
    texts = texts[:count]
    random.Random(seed).shuffle(texts)
    return texts


# ----------------------------------------------------------------------
# engine_ingest_mix: facts/dims dataset, SELECT templates, DML cycle
# ----------------------------------------------------------------------
DIM_ROWS = 256
STATUSES = ("NEW", "OPEN", "HELD", "DONE")
#: literals rotate over this many values per template
LITERALS = 8

DIMS_COLUMNS = [("id", "INT"), ("region", "TEXT")]
FACTS_COLUMNS = [
    ("id", "INT"), ("dim_id", "INT"), ("amount", "REAL"),
    ("qty", "INT"), ("status", "TEXT"),
]


def engine_batches(facts: int, batch: int):
    """The facts rows in ingest batches — fixed, so every answer has a
    golden; generated lazily so the whole dataset never sits in the
    memory of the process under test."""
    rng = random.Random(UNIVERSE_SEED)
    for offset in range(0, facts, batch):
        yield [
            (
                i,
                rng.randrange(DIM_ROWS),
                float(rng.randrange(1, 10_000)),
                rng.randrange(100),
                STATUSES[i % 4],
            )
            for i in range(offset, min(facts, offset + batch))
        ]


def engine_dims() -> list:
    return [(i, f"region {i % 16}") for i in range(DIM_ROWS)]


def engine_selects(iteration: int, facts: int) -> dict:
    """The six SELECT templates with iteration *iteration*'s literals.

    Literals rotate over ``LITERALS`` values, so a template's text
    recurs every eighth iteration: plans both hit and miss the cache.
    """
    k = iteration % LITERALS
    return {
        "headline": (
            "SELECT d.region, count(*), sum(f.amount), avg(f.qty) "
            "FROM facts f, dims d "
            "WHERE f.dim_id = d.id AND f.status LIKE 'D%' "
            f"AND f.amount > {1500 + 10 * k} AND f.amount < 9200 "
            "AND f.qty >= 5 AND f.qty < 85 "
            "AND f.amount * 0.5 + f.qty > 800 "
            "AND f.amount + f.qty * 3 < 12000 "
            "GROUP BY d.region ORDER BY sum(f.amount) DESC"
        ),
        "topn": (
            f"SELECT f.id, f.amount FROM facts f WHERE f.amount > {9000 + k} "
            "ORDER BY f.amount DESC, f.id LIMIT 25"
        ),
        "groupby": (
            "SELECT f.status, count(*), min(f.qty), max(f.amount) "
            f"FROM facts f WHERE f.qty >= {k} "
            "GROUP BY f.status ORDER BY f.status"
        ),
        "strfilter": (
            "SELECT f.id, f.amount FROM facts f "
            f"WHERE f.status = '{STATUSES[k % 4]}' AND f.qty < {3 + k // 4} "
            "ORDER BY f.id LIMIT 50"
        ),
        "leftjoin": (
            "SELECT d.id, d.region, f.id FROM dims d "
            f"LEFT JOIN facts f ON f.dim_id = d.id AND f.amount > {9990 - k} "
            "WHERE d.id < 40 ORDER BY d.id, f.id"
        ),
        "point": (
            "SELECT f.id, f.amount, f.status FROM facts f "
            f"WHERE f.id = {(7919 * (k + 1)) % facts}"
        ),
    }


def engine_write(iteration: int, facts: int) -> tuple:
    """``(kind, statement)`` of iteration *iteration*'s one write:
    UPDATE 50 rows / DELETE 20 / INSERT 20, rotating.  Targets depend on
    the iteration alone, so the table's state after *n* iterations — and
    with it every later answer — is the same on every run."""
    kind = ("update", "delete", "insert")[iteration % 3]
    base = (iteration * 997) % (facts - 100)
    if kind == "update":
        return kind, (
            f"UPDATE facts SET qty = qty + 1 "
            f"WHERE id >= {base} AND id < {base + 50}"
        )
    if kind == "delete":
        return kind, (
            f"DELETE FROM facts WHERE id >= {base} AND id < {base + 20}"
        )
    first = facts + iteration * 20
    values = ", ".join(
        f"({first + i}, {(first + i) % DIM_ROWS}, {(first + i) % 9973}.0, "
        f"{(first + i) % 100}, '{STATUSES[i % 4]}')"
        for i in range(20)
    )
    return kind, f"INSERT INTO facts VALUES {values}"


def engine_read_order(seed: int, iteration: int) -> list:
    """The order of one iteration's seven reads.

    The point lookup runs first, straight after the previous iteration's
    write, so the same statement always pays for the statistics refresh
    a write causes; the six templates follow in the seed's order.  (With
    the point lookup run twice the median read falls inside one
    template's cluster and not between two.)
    """
    names = ["headline", "topn", "groupby", "strfilter", "leftjoin", "point"]
    random.Random(seed * 1_000_003 + iteration).shuffle(names)
    return ["point"] + names
