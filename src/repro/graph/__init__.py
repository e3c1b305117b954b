"""Metadata graph substrate: triple store, pattern language, traversal."""

from repro.graph.node import Text, Vocab, is_uri, local_name, namespace_of, uri
from repro.graph.pattern import (
    Pattern,
    PatternLibrary,
    PatternRef,
    TextVar,
    TriplePattern,
    Var,
    match_pattern,
    parse_pattern,
)
from repro.graph.traversal import iter_reachable, reachable_nodes
from repro.graph.triples import Triple, TripleStore

__all__ = [
    "Pattern",
    "PatternLibrary",
    "PatternRef",
    "Text",
    "TextVar",
    "Triple",
    "TriplePattern",
    "TripleStore",
    "Var",
    "Vocab",
    "is_uri",
    "iter_reachable",
    "local_name",
    "match_pattern",
    "namespace_of",
    "parse_pattern",
    "reachable_nodes",
    "uri",
]
