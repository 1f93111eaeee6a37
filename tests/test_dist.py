import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given

from helpers import bernoulli_pair, chain_joint, small_distributions
from swigcheck.dist import (
    ConditionalTable,
    FiniteDistribution,
    depends_only_on,
    parse_prob,
)
from swigcheck.errors import (
    CellBudgetExceeded,
    InvalidDocument,
    InvalidQuery,
    UnknownVariable,
)

HALF = Fraction(1, 2)


def uniform_two_binary():
    return FiniteDistribution(
        [("A", 2), ("B", 2)], {c: Fraction(1, 4) for c in itertools.product((0, 1), repeat=2)}
    )


def test_marginal_of_uniform_is_uniform():
    d = uniform_two_binary().marginal({"A"})
    assert d.p((0,)) == d.p((1,)) == HALF


def test_marginal_keeping_everything_is_identity():
    d = chain_joint()
    assert d.marginal(d.names) == d


def test_chain_c_marginal_matches_brute_force():
    d = chain_joint()
    # independent oracle: direct sum over the eight stored cells
    brute = sum((p for cell, p in d.support() if cell[2] == 1), Fraction(0))
    assert brute == HALF
    assert d.marginal({"C"}).p((1,)) == HALF


def test_marginal_unknown_variable():
    with pytest.raises(UnknownVariable):
        chain_joint().marginal({"Q"})


def test_conditional_marks_zero_rows_undefined():
    point = FiniteDistribution([("A", 2), ("B", 2)], {(0, 0): Fraction(1)})
    table = point.conditional(("B",), ("A",))
    assert table.row((0,)) == {(0,): Fraction(1)}
    assert table.row((1,)) is None


def test_conditional_of_product_is_constant_in_the_given():
    d = bernoulli_pair(Fraction(1, 3), Fraction(2, 7))
    table = d.conditional(("Y",), ("X",))
    assert table.row((0,)) == table.row((1,)) == {(0,): Fraction(5, 7), (1,): Fraction(2, 7)}


def test_sign_locked_member_conditional_rows():
    # the negative-side law of the two-indicator construction
    p_minus = bernoulli_pair(HALF, Fraction(3, 10))
    table = p_minus.conditional(("Y",), ("X",))
    for x in (0, 1):
        assert table.row((x,)) == {(0,): Fraction(7, 10), (1,): Fraction(3, 10)}


def test_conditional_rejects_overlap_and_empty_target():
    d = uniform_two_binary()
    with pytest.raises(InvalidQuery):
        d.conditional(("A",), ("A",))
    with pytest.raises(InvalidQuery):
        d.conditional((), ("A",))


def test_conditional_given_order_follows_the_request():
    d = chain_joint()
    table = d.conditional(("C",), ("B", "A"))
    assert table.given_names == ("B", "A")
    swapped = d.conditional(("C",), ("A", "B"))
    assert table.row((1, 0)) == swapped.row((0, 1))


def test_depends_only_on_constant_family():
    rows = {(0,): {"r": 1}, (1,): {"r": 1}}
    rep = depends_only_on(rows, ("a",), set())
    assert rep.holds and rep.witness is None


def test_depends_only_on_two_row_family():
    rows = {(0,): {(1,): Fraction(1, 4)}, (1,): {(1,): Fraction(3, 4)}}
    assert depends_only_on(rows, ("a",), {"a"}).holds
    rep = depends_only_on(rows, ("a",), set())
    assert not rep.holds
    first, second = rep.witness
    assert dict(first) == {"a": 0} and dict(second) == {"a": 1}


def test_depends_only_on_skips_undefined_rows():
    rows = {(0, 0): {"r": 1}, (0, 1): None, (1, 0): {"r": 2}, (1, 1): {"r": 2}}
    rep = depends_only_on(rows, ("a", "b"), {"a"})
    assert rep.holds and rep.skipped == 1


def test_parse_prob_accepts_fractions_decimals_and_rejects_negatives():
    assert parse_prob("1/4") == Fraction(1, 4)
    assert parse_prob("0.25") == Fraction(1, 4)
    assert parse_prob(1) == Fraction(1)
    with pytest.raises(InvalidDocument):
        parse_prob("-1/4")
    with pytest.raises(InvalidDocument):
        parse_prob("x")


def test_parse_prob_bounds_the_digits_of_decimal_literals():
    assert parse_prob("1e-300") == Fraction(1, 10**300)
    assert parse_prob(1e-300) == Fraction(1, 10**300)
    assert parse_prob(0.1) == Fraction(1, 10)
    for literal in ("1e-200000", "1e-4300", "1" * 2200 + "." + "1" * 2200):
        with pytest.raises(InvalidDocument, match="needs over 4300 digits"):
            parse_prob(literal)


@pytest.mark.parametrize(
    "literal",
    [
        "1/2", "2/4", "0/3", "1/0", " 1/2", "+1/2", "1_0/20", "1/-2", "-1/2", "1 /2",
        "\u0663/\u0664",  # Arabic-Indic digits
        "1" + "0" * 4300 + "/1" + "0" * 4300,  # 4,301-digit numerator and denominator
        "0.25", "1e-300",
    ],
)
def test_from_json_reads_literals_as_parse_prob_does(literal):
    """The two-int fast path for "n/d" accepts what parse_prob accepts, gives
    the same mass, and leaves every rejection to parse_prob."""
    try:
        p = parse_prob(literal)
    except InvalidDocument as exc:
        expected = exc
    else:
        expected = None
    entries = [{"cell": [0], "p": literal}, {"cell": [1], "p": "1" if expected else str(1 - p)}]
    doc = {"variables": {"A": 2}, "entries": entries}
    if expected is None:
        assert FiniteDistribution.from_json(doc).p((0,)) == p
    else:
        with pytest.raises(InvalidDocument) as caught:
            FiniteDistribution.from_json(doc)
        assert str(caught.value) == str(expected)


def test_total_mass_must_be_one():
    with pytest.raises(InvalidDocument):
        FiniteDistribution([("A", 2)], {(0,): Fraction(1, 3)})


def test_cell_budget(monkeypatch):
    monkeypatch.setenv("SWIGCHECK_MAX_CELLS", "4")
    with pytest.raises(CellBudgetExceeded):
        FiniteDistribution([("A", 2), ("B", 2), ("C", 2)], {(0, 0, 0): Fraction(1)})
    monkeypatch.setenv("SWIGCHECK_MAX_CELLS", "8")
    FiniteDistribution([("A", 2), ("B", 2), ("C", 2)], {(0, 0, 0): Fraction(1)})


def test_json_roundtrip_canonicalizes():
    d = chain_joint()
    doc = d.to_json()
    assert doc["variables"] == {"A": 2, "B": 2, "C": 2}
    cells = [tuple(e["cell"]) for e in doc["entries"]]
    assert cells == sorted(cells)
    assert FiniteDistribution.from_json(doc) == d


def test_json_rejects_duplicates_and_negative_mass():
    with pytest.raises(InvalidDocument):
        FiniteDistribution.from_json(
            {"variables": {"A": 2}, "entries": [{"cell": [0], "p": "1/2"}, {"cell": [0], "p": "1/2"}]}
        )
    with pytest.raises(InvalidDocument):
        FiniteDistribution.from_json(
            {"variables": {"A": 2}, "entries": [{"cell": [0], "p": "-1"}, {"cell": [1], "p": "2"}]}
        )


@pytest.mark.parametrize("coordinate", [0.7, True, "0"])
def test_json_rejects_non_integer_cell_coordinates(coordinate):
    doc = {"variables": {"A": 2}, "entries": [{"cell": [coordinate], "p": "1/2"}, {"cell": [1], "p": "1/2"}]}
    with pytest.raises(InvalidDocument, match="state index must be an integer"):
        FiniteDistribution.from_json(doc)


@pytest.mark.parametrize("cardinality", [2.5, True, "2"])
def test_json_rejects_non_integer_variable_cardinalities(cardinality):
    doc = {"variables": {"A": cardinality}, "entries": [{"cell": [0], "p": "1"}]}
    with pytest.raises(InvalidDocument, match="cardinality of 'A' must be an integer"):
        FiniteDistribution.from_json(doc)


@pytest.mark.parametrize("coordinate", [0.7, True, "0"])
def test_constructor_rejects_non_integer_cell_coordinates(coordinate):
    with pytest.raises(InvalidDocument, match="state index must be an integer"):
        FiniteDistribution([("A", 2)], {(coordinate,): 1})


@pytest.mark.parametrize("cardinality", [2.9, True, "2"])
def test_constructor_rejects_non_integer_cardinalities(cardinality):
    with pytest.raises(InvalidDocument, match="cardinality of 'A' must be an integer"):
        FiniteDistribution([("A", cardinality)], {(0,): 1})


def test_is_strictly_positive_counts_the_support():
    assert uniform_two_binary().is_strictly_positive()
    # explicit zeros are dropped, so they count as missing cells
    assert not FiniteDistribution([("A", 2)], {(0,): 1, (1,): 0}).is_strictly_positive()
    assert not FiniteDistribution([("A", 2), ("B", 2)], {(0, 0): HALF, (1, 1): HALF}).is_strictly_positive()
    assert FiniteDistribution._raw([("A", 2)], {(0,): HALF, (1,): HALF / 2}).is_strictly_positive()


@given(small_distributions())
def test_marginal_composition(d):
    names = list(d.names)
    s = names[: max(1, len(names) - 1)]
    t = s[: max(1, len(s) - 1)]
    assert d.marginal(s).marginal(t) == d.marginal(t)


@given(small_distributions())
def test_chain_rule_exactness(d):
    names = list(d.names)
    for cell, p in d.support():
        acc = Fraction(1)
        for i, v in enumerate(names):
            table = d.conditional((v,), names[:i])
            row = table.row(cell[:i])
            assert row is not None
            acc *= row.get((cell[i],), Fraction(0))
        assert acc == p


@given(small_distributions())
def test_serialization_roundtrip_random(d):
    assert FiniteDistribution.from_json(d.to_json()) == d


def test_reorder_permutes_cells():
    d = chain_joint()
    r = d.reorder(("C", "A", "B"))
    assert r.names == ("C", "A", "B")
    for cell, p in d.support():
        assert r.p((cell[2], cell[0], cell[1])) == p


def test_reorder_into_the_current_order_returns_the_same_table():
    d = chain_joint()
    assert d.reorder(d.names) is d
    assert d.reorder(["A", "B", "C"]) is d
    with pytest.raises(UnknownVariable):
        d.reorder(("A", "B"))


@pytest.mark.parametrize("name", [1, None, ("A",)])
def test_constructor_rejects_non_string_variable_names(name):
    with pytest.raises(InvalidDocument, match="variable name must be a string"):
        FiniteDistribution([(name, 2), ("B", 2)], {(0, 0): 1})


def test_total_mass_message_names_the_exact_sum():
    with pytest.raises(InvalidDocument, match="total mass is 11/12, expected 1"):
        FiniteDistribution([("A", 3)], {(0,): Fraction(1, 3), (1,): Fraction(1, 3), (2,): Fraction(1, 4)})


def test_conditional_table_rejects_a_row_not_summing_to_one():
    a = ("A", 2)
    ConditionalTable((a,), (), {(): {(0,): HALF, (1,): HALF}})
    with pytest.raises(InvalidDocument, match="does not sum to 1"):
        ConditionalTable((a,), (), {(): {(0,): HALF, (1,): Fraction(1, 3)}})
    with pytest.raises(InvalidDocument, match="not exact"):
        ConditionalTable((a,), (), {(): {(0,): 0.5, (1,): 0.5}})


@pytest.mark.parametrize(
    "given, rows, message",
    [
        ((), {(): {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}}, "negative mass"),
        ((), {(): {(5,): 1}}, r"cell \(5,\) outside declared cardinalities"),
        ((), {(): {(True,): 1}}, "state index must be an integer, got True"),
        ((), {(): {(0, 1): 1}}, "wrong arity"),
        ((("B", 2),), {(7,): {(0,): 1}}, r"cell \(7,\) outside declared cardinalities"),
        ((("B", 2),), {(True,): {(0,): 1}}, "state index must be an integer, got True"),
        ((("B", 2),), {(0,): None, (0, 1): None}, "wrong arity"),
    ],
)
def test_conditional_table_rejects_rows_that_are_not_conditionals(given, rows, message):
    with pytest.raises(InvalidDocument, match=message):
        ConditionalTable((("A", 2),), given, rows)


def test_conditional_table_keeps_one_form():
    a, b = ("A", 2), ("B", 2)
    half_row = {(0,): HALF, (1,): HALF}
    q = Fraction(1, 4)
    built = FiniteDistribution([a, b], {(0, 0): HALF, (1, 0): q, (1, 1): q}).conditional(("B",), ("A",))
    # an explicit zero entry is the same row as one left out
    table = ConditionalTable((b,), (a,), {(0,): {(0,): 1, (1,): 0}, (1,): half_row})
    assert table == built
    # no dict handed in or out is kept: editing one changes neither form
    table.rows[(1,)][(0,)] = Fraction(9, 10)
    table.row((1,))[(1,)] = Fraction(9, 10)
    half_row[(0,)] = Fraction(9, 10)
    assert table.row((1,)) == {(0,): HALF, (1,): HALF}
    assert table.row((0,)) == {(0,): 1}
    assert table == built


def reference_conditional_rows(d, target, given):
    """Rows by Fraction accumulation and division, a reference for the
    integer path; names resolve as in ``conditional`` (sets by declaration)."""
    def resolve(names):
        return [n for n in d.names if n in names] if isinstance(names, (set, frozenset)) else list(names)

    t_pos = [d.index(n) for n in resolve(target)]
    g_pos = [d.index(n) for n in resolve(given)]
    joint, denom = {}, {}
    for cell, p in d.support():
        g = tuple(cell[i] for i in g_pos)
        t = tuple(cell[i] for i in t_pos)
        denom[g] = denom.get(g, Fraction(0)) + p
        row = joint.setdefault(g, {})
        row[t] = row.get(t, Fraction(0)) + p
    rows = {}
    for g in itertools.product(*(range(d.variables[i][1]) for i in g_pos)):
        mass = denom.get(g, Fraction(0))
        rows[g] = None if mass == 0 else {t: p / mass for t, p in sorted(joint[g].items())}
    return rows


def seeded_law(seed, raw):
    """Law over 3-4 variables, X0 ternary, with varied denominators and
    structural zeros (all of X0=2, X1=1 among them); a ``raw`` law keeps its
    unnormalized mass."""
    rng = random.Random(seed)
    variables = [("X0", 3)] + [(f"X{i}", rng.choice((2, 3))) for i in range(1, rng.randint(3, 4))]
    mass = {}
    for cell in itertools.product(*(range(k) for _, k in variables)):
        weight = 0 if cell[:2] == (2, 1) else rng.choice((0, 1, 2, 5, 7))
        mass[cell] = Fraction(weight, rng.randint(1, 12))
    if raw:
        return FiniteDistribution._raw(variables, mass)
    total = sum(mass.values())
    return FiniteDistribution(variables, {cell: p / total for cell, p in mass.items()})


def seeded_queries(names, seed):
    """(target, given) pairs over a seeded law's names, sets among them."""
    rng = random.Random(100 + seed)
    shuffled = rng.sample(names, len(names))
    return [
        ((names[-1],), set(names[:-1])),
        ({names[0]}, tuple(reversed(names[1:]))),
        ((names[1],), ()),
        ((names[1], names[0]), (names[-1],)),
        (tuple(shuffled[:2]), tuple(shuffled[2:])),
        ((names[2],), (names[1], names[0])),
    ]


@pytest.mark.parametrize("raw", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_conditional_matches_fraction_reference(seed, raw):
    d = seeded_law(seed, raw)
    assert (d.total() != 1) == raw
    assert d.total() == sum(p for _, p in d.support())
    undefined = 0
    for target, given in seeded_queries(d.names, seed):
        table = d.conditional(target, given)
        expected = reference_conditional_rows(d, target, given)
        assert list(table.rows) == list(expected)
        for cell, row in expected.items():
            got = table.rows[cell]
            assert got == row and (row is None or list(got) == list(row))
        undefined += sum(row is None for row in expected.values())
    # the X0=2, X1=1 zeros leave the (X1, X0) rows of the last query undefined
    assert undefined > 0


@pytest.mark.parametrize("seed", range(6))
def test_stored_form_is_the_same_on_every_path(seed):
    d = seeded_law(seed, False)
    names = d.names
    # unreduced literals: the parser must still reach lowest terms
    doc = {
        "variables": dict(d.variables),
        "entries": [{"cell": list(cell), "p": f"{3 * p.numerator}/{3 * p.denominator}"} for cell, p in d.support()],
    }
    paths = [
        FiniteDistribution.from_json(doc),
        FiniteDistribution(d.variables, dict(d.support())),
        d.reorder(names[::-1]).reorder(names),
        d.marginal(names),
    ]
    for law in paths:
        assert law == d
        assert (law.den, law.nums) == (d.den, d.nums)
        assert math.gcd(law.den, *law.nums.values()) == 1


@pytest.mark.parametrize("seed", range(6))
def test_row_keys_are_equal_exactly_when_rows_are(seed):
    # the raw law and its normalization have the same conditional rows over
    # different denominators
    raw, law = seeded_law(seed, True), seeded_law(seed, False)
    assert raw.den != law.den
    found = []
    for d in (raw, law):
        for target, given in seeded_queries(d.names, seed):
            table = d.conditional(target, given)
            assert ConditionalTable(table.target, table.given, table.rows) == table
            found += [(key, table.rows[cell]) for cell, key in table.row_keys.items() if key is not None]
    shared = 0
    for (k1, r1), (k2, r2) in itertools.combinations(found, 2):
        assert (k1 == k2) == (r1 == r2)
        shared += k1 == k2
    assert shared > 0
