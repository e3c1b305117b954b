"""The metadata graph pattern language (paper Section 4.2.1).

The paper defines patterns in a SPARQL-filter-inspired language::

    ( x tablename t:y ) &
    ( x type physical_table )

* Each clause either connects two nodes, connects a node with a text
  label, or references another pattern (``( y matches-column )``).
* A node term is a static URI or a variable.  Variables can be assigned
  any URI, but within one match a variable keeps its URI.
* An edge (predicate) term is a static URI.
* A text label is a string; ``t:name`` introduces a *text variable* that
  binds to any :class:`~repro.graph.node.Text`, while ``t:"literal"``
  requires an exact text label.

This module provides the pattern AST, a parser for the textual syntax,
and a backtracking matcher.  Patterns are resolved against a
:class:`PatternLibrary` so that one pattern can reference another (the
Foreign-Key pattern references the Column pattern via ``matches-column``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import PatternError
from repro.graph.node import Text, is_uri
from repro.graph.triples import TripleStore

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Var:
    """A node variable; binds to a URI and keeps it within one match."""

    name: str


@dataclass(frozen=True, order=True)
class TextVar:
    """A text-label variable; binds to a :class:`Text` value."""

    name: str


#: A term in subject position: variable or static URI.
NodeTerm = "Var | str"
#: A term in object position additionally allows text labels/variables.
ObjectTerm = "Var | str | Text | TextVar"


@dataclass(frozen=True)
class TriplePattern:
    """One ``( subject predicate object )`` clause."""

    subject: "Var | str"
    predicate: str
    obj: "Var | str | Text | TextVar"

    def __post_init__(self) -> None:
        if isinstance(self.subject, str) and not is_uri(self.subject):
            raise PatternError(f"static subject must be a URI: {self.subject!r}")
        if not is_uri(self.predicate):
            raise PatternError(f"predicate must be a static URI: {self.predicate!r}")
        if isinstance(self.obj, str) and not is_uri(self.obj):
            raise PatternError(f"static object must be a URI or Text: {self.obj!r}")


@dataclass(frozen=True)
class PatternRef:
    """A ``( var matches-<pattern> )`` clause referencing another pattern."""

    var: Var
    pattern_name: str


Clause = "TriplePattern | PatternRef"


@dataclass(frozen=True)
class Pattern:
    """A named conjunction of clauses.

    ``tested_var`` names the variable that is bound to "the node being
    tested" when the pattern is evaluated during graph traversal (the
    ``?``-marked node in the paper's Figures 7 and 8).
    """

    name: str
    clauses: tuple
    tested_var: str = "x"

    def variables(self) -> set[str]:
        """All node-variable names used in this pattern."""
        names: set[str] = set()
        for clause in self.clauses:
            if isinstance(clause, TriplePattern):
                if isinstance(clause.subject, Var):
                    names.add(clause.subject.name)
                if isinstance(clause.obj, Var):
                    names.add(clause.obj.name)
            else:
                names.add(clause.var.name)
        return names


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<lparen>\() |
    (?P<rparen>\)) |
    (?P<amp>&) |
    (?P<text_quoted>t:"(?:[^"\\]|\\.)*") |
    (?P<text_bare>t:[A-Za-z_][A-Za-z0-9_\-]*) |
    (?P<word>[A-Za-z_][A-Za-z0-9_\-:/.]*) |
    (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise PatternError(f"cannot tokenize pattern at: {source[pos:pos + 20]!r}")
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append((kind, match.group()))
        pos = match.end()
    return tokens


def parse_pattern(
    name: str,
    source: str,
    resolver: Mapping[str, str],
    tested_var: str = "x",
) -> Pattern:
    """Parse the textual pattern syntax into a :class:`Pattern`.

    *resolver* maps bare words (``tablename``, ``physical_table``) to
    static URIs.  Bare words **not** present in the resolver are treated
    as variables — this matches the paper's convention where variables
    are simply distinguished typographically.

    >>> from repro.graph.node import Vocab
    >>> resolver = {'tablename': Vocab.TABLENAME, 'type': Vocab.TYPE,
    ...             'physical_table': Vocab.PHYSICAL_TABLE}
    >>> pattern = parse_pattern(
    ...     'table',
    ...     '( x tablename t:y ) & ( x type physical_table )',
    ...     resolver)
    >>> len(pattern.clauses)
    2
    """
    tokens = _tokenize(source)
    clauses: list = []
    index = 0

    def resolve_node(word: str) -> "Var | str":
        if word in resolver:
            return resolver[word]
        if is_uri(word):
            return word
        return Var(word)

    def resolve_object(kind: str, word: str) -> "Var | str | Text | TextVar":
        if kind == "text_quoted":
            body = word[3:-1]  # strip t:" and closing "
            return Text(body.replace('\\"', '"'))
        if kind == "text_bare":
            return TextVar(word[2:])
        return resolve_node(word)

    while index < len(tokens):
        kind, value = tokens[index]
        if kind == "amp":
            index += 1
            continue
        if kind != "lparen":
            raise PatternError(f"expected '(' in pattern {name!r}, got {value!r}")
        index += 1
        group: list[tuple[str, str]] = []
        while index < len(tokens) and tokens[index][0] != "rparen":
            group.append(tokens[index])
            index += 1
        if index >= len(tokens):
            raise PatternError(f"unbalanced parentheses in pattern {name!r}")
        index += 1  # consume ')'

        if len(group) == 2:
            var_kind, var_word = group[0]
            ref_kind, ref_word = group[1]
            if var_kind != "word" or ref_kind != "word":
                raise PatternError(f"malformed reference clause in {name!r}")
            if not ref_word.startswith("matches-"):
                raise PatternError(
                    f"two-term clause must be 'matches-<pattern>' in {name!r}: "
                    f"{ref_word!r}"
                )
            clauses.append(PatternRef(Var(var_word), ref_word[len("matches-"):]))
        elif len(group) == 3:
            (s_kind, s_word), (p_kind, p_word), (o_kind, o_word) = group
            if s_kind != "word" or p_kind != "word":
                raise PatternError(f"malformed triple clause in {name!r}")
            subject = resolve_node(s_word)
            if p_word not in resolver and not is_uri(p_word):
                raise PatternError(
                    f"predicate {p_word!r} in pattern {name!r} is not a known URI"
                )
            predicate = resolver.get(p_word, p_word)
            obj = resolve_object(o_kind, o_word)
            clauses.append(TriplePattern(subject, predicate, obj))
        else:
            raise PatternError(
                f"clause must have 2 or 3 terms in pattern {name!r}, "
                f"found {len(group)}"
            )

    if not clauses:
        raise PatternError(f"pattern {name!r} has no clauses")
    return Pattern(name=name, clauses=tuple(clauses), tested_var=tested_var)


# ---------------------------------------------------------------------------
# Matcher
# ---------------------------------------------------------------------------


class PatternLibrary:
    """A named collection of patterns that can reference each other."""

    def __init__(self, patterns: Iterable[Pattern] = ()) -> None:
        self._patterns: dict[str, Pattern] = {}
        for pattern in patterns:
            self.add(pattern)

    def add(self, pattern: Pattern) -> None:
        if pattern.name in self._patterns:
            raise PatternError(f"duplicate pattern name: {pattern.name!r}")
        self._patterns[pattern.name] = pattern

    def get(self, name: str) -> Pattern:
        try:
            return self._patterns[name]
        except KeyError:
            raise PatternError(f"unknown pattern: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._patterns

    def names(self) -> list[str]:
        return sorted(self._patterns)


Binding = "dict[str, str | Text]"


def match_pattern(
    store: TripleStore,
    pattern: Pattern,
    node: str,
    library: PatternLibrary | None = None,
    _depth: int = 0,
) -> list[dict]:
    """Match *pattern* with its tested variable bound to *node*.

    Returns the list of variable bindings (one dict per match).  An empty
    list means the pattern does not match at this node.  Pattern
    references are evaluated with semi-join semantics: the referenced
    pattern must match at the referenced node, but its internal bindings
    are not exported.
    """
    if _depth > 16:
        raise PatternError(f"pattern reference cycle involving {pattern.name!r}")
    library = library or PatternLibrary()
    initial: dict = {pattern.tested_var: node}
    return _match_clauses(store, list(pattern.clauses), initial, library, _depth)


def _match_clauses(
    store: TripleStore,
    clauses: list,
    bindings: dict,
    library: PatternLibrary,
    depth: int,
) -> list[dict]:
    if not clauses:
        return [dict(bindings)]
    clause, rest = clauses[0], clauses[1:]
    results: list[dict] = []
    if isinstance(clause, PatternRef):
        target = bindings.get(clause.var.name)
        if target is None:
            raise PatternError(
                f"reference variable {clause.var.name!r} must be bound before "
                f"'matches-{clause.pattern_name}' is evaluated"
            )
        referenced = library.get(clause.pattern_name)
        if match_pattern(store, referenced, target, library, depth + 1):
            results.extend(_match_clauses(store, rest, bindings, library, depth))
        return results

    for candidate in _candidate_triples(store, clause, bindings):
        extended = _extend(bindings, clause, candidate)
        if extended is None:
            continue
        results.extend(_match_clauses(store, rest, extended, library, depth))
    return results


def _candidate_triples(
    store: TripleStore, clause: TriplePattern, bindings: dict
) -> Iterator:
    subject = _resolve_term(clause.subject, bindings)
    obj = _resolve_term(clause.obj, bindings)
    subject_bound = subject if isinstance(subject, str) else None
    obj_bound = obj if isinstance(obj, (str, Text)) else None
    return store.match(subject_bound, clause.predicate, obj_bound)


def _resolve_term(term, bindings: dict):
    """Return the concrete value of a term under *bindings*, or the term."""
    if isinstance(term, Var):
        return bindings.get(term.name, term)
    if isinstance(term, TextVar):
        value = bindings.get(term.name)
        return value if value is not None else term
    return term


def _extend(bindings: dict, clause: TriplePattern, triple) -> dict | None:
    """Extend *bindings* with the variable assignments implied by *triple*."""
    extended = dict(bindings)
    if isinstance(clause.subject, Var):
        existing = extended.get(clause.subject.name)
        if existing is not None and existing != triple.subject:
            return None
        extended[clause.subject.name] = triple.subject
    if isinstance(clause.obj, Var):
        if not isinstance(triple.obj, str):
            return None  # node variable cannot bind a text label
        existing = extended.get(clause.obj.name)
        if existing is not None and existing != triple.obj:
            return None
        extended[clause.obj.name] = triple.obj
    elif isinstance(clause.obj, TextVar):
        if not isinstance(triple.obj, Text):
            return None
        existing = extended.get(clause.obj.name)
        if existing is not None and existing != triple.obj:
            return None
        extended[clause.obj.name] = triple.obj
    return extended
