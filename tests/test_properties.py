"""Property-based checks for the algebraic identities."""

from hypothesis import given, settings
from hypothesis import strategies as st

from revtour import (
    EnumSpec,
    PairFamily,
    Pairing,
    Tournament,
    all_modules_bruteforce,
    classify,
    components,
    dual,
    enumerate_families,
    is_indecomposable,
    is_irreducible_pairing,
    is_irreducible_partition,
    is_irreducible_quasi,
    is_module,
    mirrored,
    module_closure,
    subtournament,
)
from revtour.core import _out_rows, is_indecomposable_rows, module_rows, pair_count

from oracles import anatomy_by_sorting, sweep_by_spans
from test_core import assert_kernels_match_rescans


@st.composite
def tournaments(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return Tournament(n, bits)


@st.composite
def tournaments_with_pairs(draw, max_n=8):
    t = draw(tournaments(max_n))
    all_pairs = [(x, y) for x in range(t.n) for y in range(x + 1, t.n)]
    chosen = draw(st.sets(st.sampled_from(all_pairs)) if all_pairs else st.just(set()))
    return t, sorted(chosen)


@st.composite
def tournaments_with_subset(draw, max_n=8):
    t = draw(tournaments(max_n))
    members = draw(st.sets(st.integers(min_value=0, max_value=t.n - 1)))
    return t, members


def assert_witness(t, ground):
    """A nonzero mask that ``module_rows`` returns is a nontrivial module
    of the subtournament on the ground."""
    module = module_rows(_out_rows(t), ground)
    if module:
        members = [v for v in range(t.n) if ground >> v & 1]
        sub, _ = subtournament(t, members)
        assert not module & ~ground
        assert 2 <= module.bit_count() < len(members)
        assert is_module(sub, [members.index(v) for v in members if module >> v & 1])


@st.composite
def tournaments_with_ground(draw, max_n=10):
    t = draw(tournaments(max_n).filter(lambda t: t.n >= 3))
    members = draw(st.sets(st.integers(min_value=0, max_value=t.n - 1), min_size=3))
    return t, members


@st.composite
def partial_pairings(draw, max_n=9):
    n = draw(st.integers(min_value=2, max_value=max_n))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(min_value=0, max_value=n // 2))
    pairs = [tuple(sorted((order[2 * i], order[2 * i + 1]))) for i in range(k)]
    return Pairing(n, pairs)


@given(tournaments_with_pairs())
def test_reversal_is_an_involution(case):
    t, pairs = case
    from revtour import reverse_pairs

    assert reverse_pairs(reverse_pairs(t, pairs), pairs) == t


@given(tournaments_with_pairs())
def test_dual_commutes_with_reversal(case):
    t, pairs = case
    from revtour import reverse_pairs

    assert dual(reverse_pairs(t, pairs)) == reverse_pairs(dual(t), pairs)


@given(tournaments_with_ground())
def test_ground_mask_verdict_is_the_module_scan(case):
    t, members = case
    sub, _ = subtournament(t, members)
    nontrivial = [m for m in all_modules_bruteforce(sub) if 2 <= len(m) <= sub.n - 1]
    ground = sum(1 << v for v in members)
    assert is_indecomposable_rows(_out_rows(t), ground) == (not nontrivial)
    assert_witness(t, ground)


@given(tournaments_with_ground())
def test_one_pass_kernels_are_the_rescans(case):
    # The one-pass closure rests on antisymmetry, which any tournament has.
    t, members = case
    assert_kernels_match_rescans(_out_rows(t), t.n, sum(1 << v for v in members))


@st.composite
def planted_modules(draw):
    """A tournament on 6-10 vertices in which every vertex outside a drawn
    set treats the set alike, so that the set is a module, and a ground
    set, which holds the module half the time."""
    n = draw(st.integers(min_value=6, max_value=10))
    arcs = draw(st.lists(st.booleans(), min_size=pair_count(n), max_size=pair_count(n)))
    module = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2))
    beats = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bits = k = 0
    for x in range(n):
        for y in range(x + 1, n):
            if (x in module) != (y in module):
                outside = y if x in module else x
                arcs[k] = beats[outside] == (outside == x)
            bits |= arcs[k] << k
            k += 1
    ground = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=3))
    if draw(st.booleans()):
        ground |= module
    return Tournament(n, bits), sum(1 << v for v in ground)


@settings(max_examples=120)
@given(planted_modules())
def test_fixed_vertex_test_is_the_module_scan(case):
    t, ground = case
    sub, _ = subtournament(t, (v for v in range(t.n) if ground >> v & 1))
    nontrivial = [m for m in all_modules_bruteforce(sub) if 2 <= len(m) <= sub.n - 1]
    assert is_indecomposable_rows(_out_rows(t), ground) == (not nontrivial)
    assert_witness(t, ground)


@given(tournaments_with_subset())
def test_dual_preserves_modules(case):
    t, members = case
    assert is_module(t, members) == is_module(dual(t), members)


@given(tournaments())
def test_dual_preserves_indecomposability(t):
    assert is_indecomposable(t) == is_indecomposable(dual(t))


@given(tournaments(max_n=7), st.data())
def test_module_closure_is_a_minimal_module(t, data):
    if t.n < 2:
        return
    x = data.draw(st.integers(min_value=0, max_value=t.n - 1))
    y = data.draw(st.integers(min_value=0, max_value=t.n - 1).filter(lambda v: v != x))
    closure = module_closure(t, {x, y})
    assert {x, y} <= closure
    assert is_module(t, closure)
    # Least among all modules containing the seed.
    for mask in range(1 << t.n):
        members = frozenset(v for v in range(t.n) if mask >> v & 1)
        if {x, y} <= members and is_module(t, members):
            assert closure <= members


@given(tournaments())
def test_text_round_trip(t):
    assert Tournament.from_text(t.to_text()) == t


@given(partial_pairings())
def test_pairing_serialization_round_trip(family):
    assert PairFamily.parse(family.n, family.serialize()) == PairFamily(
        family.n, family.pairs
    )


@st.composite
def partitions(draw, max_vertices=16, max_block=6):
    """A set of up to 16 integers, with gaps, cut into blocks of 1-6."""
    order = draw(st.lists(st.integers(-40, 40), unique=True, max_size=max_vertices))
    blocks, start = [], 0
    while start < len(order):
        size = draw(st.integers(1, min(max_block, len(order) - start)))
        blocks.append(order[start : start + size])
        start += size
    return order, blocks


@settings(max_examples=250)
@given(partitions())
def test_cut_rule_is_the_span_sweep(case):
    ground, blocks = case
    want = sweep_by_spans([tuple(sorted(b)) for b in blocks])
    assert is_irreducible_partition(ground, blocks) == want


@given(partial_pairings())
def test_pairing_components_are_its_pairs(family):
    assert components(family) == list(family.pairs)


@given(partial_pairings())
def test_mirroring_preserves_pairing_irreducibility(family):
    assert is_irreducible_pairing(family) == is_irreducible_pairing(mirrored(family))


def test_classification_of_enumerated_families():
    for kind, expected in (("partial-pairing", "pairing"), ("partial-quasi", "quasi-pairing")):
        for n in range(3, 7):
            for family in enumerate_families(EnumSpec(n, kind)):
                assert classify(family) == expected


def test_quasi_components_equal_merged_partition():
    # The component view and the merged-partition view coincide on every
    # enumerated quasi-pairing with support up to 9 points.
    for n in range(3, 10):
        for family in enumerate_families(EnumSpec(n, "quasi")):
            assert components(family) == list(anatomy_by_sorting(family.pairs)[4])


def test_hub_uniqueness_on_enumerated_quasis():
    for n in range(3, 8):
        for family in enumerate_families(EnumSpec(n, "partial-quasi")):
            degree = dict.fromkeys(family.support, 0)
            for pair in family.pairs:
                for v in pair:
                    degree[v] += 1
            doubled = [v for v, d in degree.items() if d == 2]
            assert doubled == [anatomy_by_sorting(family.pairs)[0]] == [family._hub]
            assert sorted(degree.values()) == [1] * (len(degree) - 1) + [2]


def test_mirroring_preserves_quasi_irreducibility_exhaustively():
    for n in range(3, 8):
        for family in enumerate_families(EnumSpec(n, "partial-quasi")):
            assert is_irreducible_quasi(family) == is_irreducible_quasi(mirrored(family))


@settings(max_examples=50)
@given(st.integers(min_value=3, max_value=8))
def test_total_order_modules_are_intervals(n):
    from revtour import transitive

    t = transitive(n)
    for mask in range(1 << n):
        members = sorted(v for v in range(n) if mask >> v & 1)
        contiguous = not members or members[-1] - members[0] + 1 == len(members)
        assert is_module(t, members) == contiguous
