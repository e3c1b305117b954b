"""The experiment workload: Table 2 of the paper.

Thirteen queries (Q1.0 – Q10.0) with their SODA keyword text, the query
type tags used by Table 5 (B = base data, S = schema, D = domain
ontology, I = inheritance, P = predicates, A = aggregates), and the
hand-written gold-standard SQL against the finbank physical schema.

A gold standard may consist of several statements whose union is the
expected answer (the paper's Q5.0 gold is "two separate 3-way join
queries for private and corporate clients").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentQuery:
    """One row of Table 2."""

    qid: str
    text: str
    types: tuple  # subset of B, S, D, I, P, A
    gold: tuple  # one or more SQL statements (union semantics)
    comment: str

    def uses(self, type_tag: str) -> bool:
        return type_tag in self.types

    def run_gold(self, database) -> list:
        """The gold statements' results, for :func:`evaluate_sql`."""
        return [database.execute(sql) for sql in self.gold]


WORKLOAD: tuple = (
    ExperimentQuery(
        qid="1.0",
        text="private customers family name",
        types=("D", "S", "I"),
        gold=(
            "SELECT individuals.family_nm FROM parties, individuals "
            "WHERE parties.id = individuals.id",
        ),
        comment=(
            "Customer domain ontology (D) combined with a schema attribute "
            "(S); needs the inheritance join (I)."
        ),
    ),
    ExperimentQuery(
        qid="2.1",
        text="Sara",
        types=("B", "I"),
        gold=(
            "SELECT individuals.id FROM parties, individuals, "
            "individual_name_hist WHERE parties.id = individuals.id "
            "AND individual_name_hist.indiv_id = individuals.id "
            "AND individual_name_hist.given_nm = 'Sara'",
        ),
        comment=(
            "Base data (B) as filter; the gold standard searches the "
            "bi-temporal name history (five Saras ever, one current)."
        ),
    ),
    ExperimentQuery(
        qid="2.2",
        text="Sara given name",
        types=("B", "S", "I"),
        gold=(
            "SELECT individuals.id FROM parties, individuals, "
            "individual_name_hist WHERE parties.id = individuals.id "
            "AND individual_name_hist.indiv_id = individuals.id "
            "AND individual_name_hist.given_nm = 'Sara'",
        ),
        comment="Q2.1 plus a restriction on the given-name attribute (S).",
    ),
    ExperimentQuery(
        qid="2.3",
        text="Sara birth date",
        types=("B", "S", "I"),
        gold=(
            "SELECT individuals.id, individuals.birth_dt FROM parties, "
            "individuals WHERE parties.id = individuals.id "
            "AND individuals.given_nm = 'Sara'",
        ),
        comment=(
            "The birth-date attribute focuses the query on the individuals "
            "snapshot table, where SODA's answer is exact."
        ),
    ),
    ExperimentQuery(
        qid="3.1",
        text="Credit Suisse",
        types=("B",),
        gold=(
            "SELECT organizations.id, organizations.org_nm FROM organizations "
            "WHERE organizations.org_nm = 'Credit Suisse'",
        ),
        comment="Credit Suisse as an organization (ambiguity case A).",
    ),
    ExperimentQuery(
        qid="3.2",
        text="Credit Suisse",
        types=("B",),
        gold=(
            "SELECT agreements_td.id, agreements_td.agreement_nm "
            "FROM agreements_td "
            "WHERE agreements_td.agreement_nm LIKE '%Credit Suisse%'",
        ),
        comment="Credit Suisse as part of an agreement (ambiguity case B).",
    ),
    ExperimentQuery(
        qid="4.0",
        text="gold agreement",
        types=("B", "S"),
        gold=(
            "SELECT agreements_td.id, agreements_td.agreement_nm "
            "FROM agreements_td, parties "
            "WHERE agreements_td.party_id = parties.id "
            "AND agreements_td.agreement_nm LIKE '%Gold%'",
        ),
        comment="Base-data filter matched with a schema entity (2-way join).",
    ),
    ExperimentQuery(
        qid="5.0",
        text="customers names",
        types=("D", "I"),
        gold=(
            "SELECT individuals.family_nm FROM parties, individuals "
            "WHERE parties.id = individuals.id",
            "SELECT organization_name_hist.org_nm FROM parties, organizations, "
            "organization_name_hist WHERE parties.id = organizations.id "
            "AND organization_name_hist.org_id = organizations.id "
            "AND organization_name_hist.valid_to_dt IS NULL",
        ),
        comment=(
            "Two separate queries for private and corporate clients; SODA "
            "produces one query through the sibling bridge (Fig. 10) and "
            "degrades."
        ),
    ),
    ExperimentQuery(
        qid="6.0",
        text="trade order period > date(2011-09-01)",
        types=("S", "P", "I"),
        gold=(
            "SELECT trade_orders.id, orders_td.order_period_dt "
            "FROM orders_td, trade_orders "
            "WHERE trade_orders.id = orders_td.id "
            "AND orders_td.order_period_dt > DATE '2011-09-01'",
        ),
        comment="Time-based range predicate (P) on a schema column (S).",
    ),
    ExperimentQuery(
        qid="7.0",
        text="YEN trade order",
        types=("B", "S", "I"),
        gold=(
            "SELECT trade_orders.id FROM orders_td, trade_orders, currencies "
            "WHERE trade_orders.id = orders_td.id "
            "AND trade_orders.currency_cd = currencies.currency_cd "
            "AND currencies.currency_cd = 'YEN' "
            "AND orders_td.status_cd = 'EXECUTED'",
        ),
        comment=(
            "The expert intent restricts to executed orders; SODA returns "
            "all YEN trade orders (half precision, full recall)."
        ),
    ),
    ExperimentQuery(
        qid="8.0",
        text="trade order investment product Lehman XYZ",
        types=("B", "S", "I"),
        gold=(
            "SELECT trade_orders.id, investment_products.product_nm "
            "FROM orders_td, trade_orders, investment_products "
            "WHERE trade_orders.id = orders_td.id "
            "AND trade_orders.instr_id = investment_products.id "
            "AND investment_products.product_nm LIKE '%Lehman XYZ%'",
        ),
        comment="Base data + schema, multi-way join incl. inheritance.",
    ),
    ExperimentQuery(
        qid="9.0",
        text="select count() private customers Switzerland",
        types=("B", "D", "A", "I"),
        gold=(
            "SELECT count(*) FROM parties, individuals, party_address, "
            "addresses WHERE parties.id = individuals.id "
            "AND party_address.party_id = parties.id "
            "AND party_address.adr_id = addresses.id "
            "AND addresses.country = 'Switzerland'",
        ),
        comment=(
            "The correct count goes through the party_address bridge; SODA "
            "joins the stale domicile foreign key and returns a wrong count."
        ),
    ),
    ExperimentQuery(
        qid="10.0",
        text="sum(investments) group by (currency)",
        types=("A", "S"),
        gold=(
            "SELECT sum(investments_td.amount), investments_td.currency_cd "
            "FROM investments_td GROUP BY investments_td.currency_cd",
        ),
        comment="Explicit aggregation and grouping via the product ontology.",
    ),
)


def query_by_id(qid: str) -> ExperimentQuery:
    """Look up a workload query by its Table 2 id."""
    for query in WORKLOAD:
        if query.qid == qid:
            return query
    raise KeyError(f"no experiment query with id {qid!r}")


#: Paper-reported values, printed next to ours (Table 3 / Table 4).
PAPER_TABLE3: dict = {
    "1.0": (1.00, 1.00, 1, 0),
    "2.1": (1.00, 0.20, 1, 3),
    "2.2": (1.00, 0.20, 1, 1),
    "2.3": (1.00, 1.00, 1, 2),
    "3.1": (1.00, 1.00, 2, 4),
    "3.2": (1.00, 1.00, 3, 3),
    "4.0": (1.00, 1.00, 1, 3),
    "5.0": (0.12, 0.56, 1, 4),
    "6.0": (1.00, 1.00, 2, 0),
    "7.0": (0.50, 1.00, 1, 3),
    "8.0": (1.00, 1.00, 2, 2),
    "9.0": (0.00, 0.00, 0, 6),
    "10.0": (1.00, 1.00, 1, 5),
}

PAPER_TABLE4: dict = {
    # qid: (complexity, n_results, soda_runtime_sec, total_runtime_min)
    "1.0": (3, 1, 1.54, 6),
    "2.1": (4, 4, 0.81, 1),
    "2.2": (12, 2, 1.60, 3),
    "2.3": (12, 3, 1.69, 3),
    "3.1": (12, 6, 3.78, 2),
    "3.2": (12, 6, 3.78, 2),
    "4.0": (16, 4, 4.89, 4),
    "5.0": (4, 4, 1.24, 6),
    "6.0": (5, 2, 0.73, 1),
    "7.0": (20, 4, 4.94, 1),
    "8.0": (8, 4, 2.94, 2),
    "9.0": (30, 6, 7.31, 1),
    "10.0": (25, 6, 2.83, 40),
}
