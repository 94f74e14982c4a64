"""Canonical labeling by refinement against the permutation scan and networkx."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx import DiGraph
from networkx.algorithms.isomorphism import DiGraphMatcher

from revtour import (
    EnumSpec,
    Tournament,
    canonical_form,
    census,
    relabel,
    reverse_pairs,
    transitive,
)
from revtour.core import pair_count

from oracles import canonical_form_by_scan

# Largest n drawn for the checks that do not call the n! scan.
WIDE_N = 12


def paley(p: int) -> Tournament:
    """The Paley tournament on Z_p, p = 3 mod 4: x -> y when y - x is a square."""
    squares = {x * x % p for x in range(1, p)}
    losing = [(x, y) for x in range(p) for y in range(x + 1, p) if (y - x) % p not in squares]
    return reverse_pairs(transitive(p), losing)


def as_digraph(t: Tournament) -> DiGraph:
    g = DiGraph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.arcs())
    return g


@st.composite
def tournaments(draw, min_n, max_n):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Tournament(n, draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1)))


@st.composite
def relabeled(draw):
    t = draw(tournaments(1, WIDE_N))
    return t, relabel(t, draw(st.permutations(range(t.n))))


@st.composite
def one_pair_reversed(draw):
    t = draw(tournaments(2, WIDE_N))
    x = draw(st.integers(0, t.n - 2))
    y = draw(st.integers(x + 1, t.n - 1))
    return t, reverse_pairs(t, [(x, y)])


def test_paley_tournaments_are_regular():
    for p in (7, 11):
        t = paley(p)
        scores = {sum(t.arc(x, y) for y in range(p) if y != x) for x in range(p)}
        assert scores == {(p - 1) // 2}


@pytest.mark.parametrize("n", range(6))
def test_matches_scan_on_every_small_tournament(n):
    for bits in range(1 << pair_count(n)):
        t = Tournament(n, bits)
        assert canonical_form(t) == canonical_form_by_scan(t)


@settings(max_examples=25, deadline=None)
@given(tournaments(6, 8))
def test_matches_scan_on_drawn_tournaments(t):
    assert canonical_form(t) == canonical_form_by_scan(t)


def test_matches_scan_on_paley7():
    assert canonical_form(paley(7)) == canonical_form_by_scan(paley(7))


@settings(max_examples=60, deadline=None)
@given(relabeled())
def test_invariant_under_relabeling(case):
    t, image = case
    assert canonical_form(t) == canonical_form(image)


@pytest.mark.parametrize("p", [7, 11, 23])
def test_invariant_under_relabeling_paley(p):
    rng = random.Random(p)
    form = canonical_form(paley(p))
    for _ in range(5):
        perm = list(range(p))
        rng.shuffle(perm)
        assert canonical_form(relabel(paley(p), perm)) == form


@settings(max_examples=40, deadline=None)
@given(st.one_of(relabeled(), one_pair_reversed()))
def test_forms_agree_with_networkx_isomorphism(case):
    a, b = case
    same = canonical_form(a) == canonical_form(b)
    assert same == DiGraphMatcher(as_digraph(a), as_digraph(b)).is_isomorphic()


def test_census_class_ids_match_the_scan(monkeypatch):
    spec = EnumSpec(6, "partial-quasi")
    fast = [r.class_id for r in census(spec)]
    monkeypatch.setattr("revtour.enumeration.canonical_form", canonical_form_by_scan)
    assert [r.class_id for r in census(spec)] == fast
    assert any(fast) and None in fast


# There is no pairing of 7 points, so pairings are taken at n = 8.
@pytest.mark.parametrize("kind, n", [
    ("pairing", 8), ("partial-pairing", 7), ("quasi", 7), ("partial-quasi", 7),
])
def test_census_class_ids_are_the_networkx_classes(kind, n):
    records = [r for r in census(EnumSpec(n, kind)) if r.indecomposable]
    first = {}
    for r in records:
        first.setdefault(r.class_id, as_digraph(r.tournament))
    assert records and list(first) == list(range(len(first)))
    for r in records:
        assert DiGraphMatcher(as_digraph(r.tournament), first[r.class_id]).is_isomorphic()
    for a, b in combinations(first.values(), 2):
        assert not DiGraphMatcher(a, b).is_isomorphic()
