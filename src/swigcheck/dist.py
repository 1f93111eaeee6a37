"""Exact finite discrete probability tables.

Every operation is closed over the rationals, so equality checks used by
the checkers are exact rather than tolerance-based. A table stores its
masses as integer numerators over their least common denominator, so mass
totals and conditional rows are integer sums, and a :class:`fractions.Fraction`
is built only where a value is read. Conditional tables keep each row as a
canonical integer tuple and mark rows whose conditioning event has
probability zero as undefined; the checkers skip such rows and report how
many were skipped.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence

from .errors import CellBudgetExceeded, InvalidDocument, InvalidQuery, UnknownVariable

MAX_CELLS_ENV = "SWIGCHECK_MAX_CELLS"
DEFAULT_MAX_CELLS = 1 << 20
# Python's default limit on the digits of an int converted to or from text;
# a parsed mass with more digits could not be printed in a message or a report
MAX_LITERAL_DIGITS = 4300

ZERO = Fraction(0)


def cell_bound() -> int:
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidDocument(f"{MAX_CELLS_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise InvalidDocument(f"{MAX_CELLS_ENV} must be positive")
    return value


def document_int(value, what: str) -> int:
    """Integer read from a document; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidDocument(f"{what} must be an integer, got {value!r}")
    return value


def _lowest_terms(den: int, nums: dict) -> tuple[int, dict]:
    """``den`` and ``nums`` divided by their greatest common divisor."""
    g = math.gcd(den, *nums.values())
    if g == 1:
        return den, nums
    return den // g, {key: n // g for key, n in nums.items()}


def _projector(positions: Sequence[int]):
    """Map a cell to the tuple of its coordinates at ``positions``."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    # one position or none: a slice keeps the result a tuple
    i = positions[0] if positions else 0
    return operator.itemgetter(slice(i, i + len(positions)))


def parse_prob(value) -> Fraction:
    """Exact probability from ``"num/den"`` strings, decimals, or numbers."""
    if isinstance(value, Fraction):
        p = value
    elif isinstance(value, int) and not isinstance(value, bool):
        p = Fraction(value)
    elif isinstance(value, (str, float)):
        # floats are accepted but converted through their decimal rendering so
        # that "0.1" means one tenth, not the nearest binary double
        text = value if isinstance(value, str) else repr(value)
        try:
            if "/" not in text:
                # a decimal's digits plus its exponent bound the digits of its
                # numerator and denominator
                mantissa, _, exponent = text.lower().partition("e")
                if len(mantissa) + abs(int(exponent or 0)) > MAX_LITERAL_DIGITS:
                    raise InvalidDocument(f"probability literal {value!r} needs over {MAX_LITERAL_DIGITS} digits")
            p = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidDocument(f"bad probability literal {value!r}") from exc
    else:
        raise InvalidDocument(f"bad probability value {value!r}")
    if p < 0:
        raise InvalidDocument(f"negative probability {value!r}")
    return p


def _literal(value) -> tuple[int, int]:
    """``(num, den)`` of a document mass: ``"n/d"`` in decimal digits with a
    nonzero ``d`` is read as two ints, anything else by :func:`parse_prob`."""
    num, _, den = value.partition("/") if type(value) is str else ("", "", "")
    if num.isdecimal() and den.isdecimal():
        try:
            if int(den):
                return int(num), int(den)
        except ValueError:  # past the int-to-text digit limit
            pass
    p = parse_prob(value)
    return p.numerator, p.denominator


class FiniteDistribution:
    """Joint probability table over named discrete variables.

    Cells are tuples of state indices aligned with ``variables``. Only
    nonzero cells are stored, as integer numerators ``nums`` over ``den`` in
    lowest terms, so equal laws store equal forms. The total mass must be
    exactly one. ``_parsed`` marks a mass of tuple cells mapped to ``(num,
    den)`` pairs, as :meth:`from_json` and the g-formula build it.
    """

    __slots__ = ("variables", "_index", "den", "nums")

    def __init__(self, variables: Sequence[tuple[str, int]], mass: Mapping[tuple, Fraction], *, _checked=False, _parsed=False):
        variables = tuple((n, k) for n, k in variables)
        for n, _ in variables:
            if not isinstance(n, str):
                raise InvalidDocument(f"variable name must be a string, got {n!r}")
        names = [n for n, _ in variables]
        if len(set(names)) != len(names):
            raise InvalidDocument("duplicate variable names")
        for n, k in variables:
            if document_int(k, f"cardinality of {n!r}") < 1:
                raise InvalidDocument(f"cardinality of {n!r} must be positive")
        size = 1
        for _, k in variables:
            size *= k
        bound = cell_bound()
        if size > bound:
            raise CellBudgetExceeded(size, bound)
        cards = tuple(k for _, k in variables)
        ratios: dict[tuple[int, ...], tuple[int, int]] = {}
        for cell, p in mass.items():
            if not _parsed:
                cell = tuple(cell)
            if len(cell) != len(cards):
                raise InvalidDocument(f"cell {cell} has wrong arity")
            for s, k in zip(cell, cards):
                if type(s) is not int:
                    raise InvalidDocument(f"state index must be an integer, got {s!r} in cell {cell}")
                if not 0 <= s < k:
                    raise InvalidDocument(f"cell {cell} outside declared cardinalities")
            if not _parsed:
                p = p if isinstance(p, Fraction) else parse_prob(p)
                p = p.numerator, p.denominator
            if p[0] < 0:
                raise InvalidDocument(f"negative mass at cell {cell}")
            if p[0]:
                if cell in ratios:
                    raise InvalidDocument(f"duplicate cell {cell}")
                ratios[cell] = p
        den = math.lcm(*{d for _, d in ratios.values()})
        scale = {d: den // d for _, d in ratios.values()}
        nums = {cell: n * scale[d] for cell, (n, d) in ratios.items()}
        if not _checked:
            total = sum(nums.values())
            if total != den:
                total = Fraction(total, den)
                if max(total.numerator, total.denominator) >= 10**MAX_LITERAL_DIGITS:
                    total = f"a fraction of over {MAX_LITERAL_DIGITS} digits"
                raise InvalidDocument(f"total mass is {total}, expected 1")
        self._store(variables, *_lowest_terms(den, nums))

    def _store(self, variables, den: int, nums: dict) -> None:
        for name, value in zip(self.__slots__, (variables, {n: i for i, (n, _) in enumerate(variables)}, den, nums)):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, variables, mass) -> "FiniteDistribution":
        """Diagnostic table that may not sum to one (mutants, stitched laws)."""
        return cls(variables, mass, _checked=True)

    @classmethod
    def _derived(cls, variables, den: int, nums: dict) -> "FiniteDistribution":
        """Table computed from a checked one, already in lowest terms: its
        cells are not checked again."""
        table = object.__new__(cls)
        table._store(variables, den, nums)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("FiniteDistribution instances are immutable")

    # -- basic access -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def cards(self) -> dict[str, int]:
        return {n: k for n, k in self.variables}

    def index(self, name: str) -> int:
        if name not in self._index:
            raise UnknownVariable(name)
        return self._index[name]

    def p(self, cell: Sequence[int]) -> Fraction:
        n = self.nums.get(tuple(cell))
        return ZERO if n is None else Fraction(n, self.den)

    def cells(self) -> Iterable[tuple[int, ...]]:
        """All cells of the product space in lexicographic order."""
        return itertools.product(*(range(k) for _, k in self.variables))

    def support(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return [(cell, Fraction(n, self.den)) for cell, n in sorted(self.nums.items())]

    def total(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def is_strictly_positive(self) -> bool:
        # only nonzero, in-range, distinct cells are stored
        return len(self.nums) == math.prod(k for _, k in self.variables)

    def __eq__(self, other):
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self.variables == other.variables and self.den == other.den and self.nums == other.nums

    def __repr__(self):
        return f"FiniteDistribution({self.names}, {len(self.nums)} nonzero cells)"

    # -- operations ---------------------------------------------------

    def reorder(self, names: Sequence[str]) -> "FiniteDistribution":
        """Same law with variables permuted into the given name order."""
        names = tuple(names)
        if names == self.names:
            return self  # immutable and already validated
        if sorted(names) != sorted(self.names):
            raise UnknownVariable(set(names) ^ set(self.names))
        perm = [self.index(n) for n in names]
        variables = tuple(self.variables[i] for i in perm)
        of = _projector(perm)
        return FiniteDistribution._derived(variables, self.den, {of(cell): n for cell, n in self.nums.items()})

    def marginal(self, keep: Iterable[str]) -> "FiniteDistribution":
        """Sum the mass over every variable not in ``keep``."""
        keep = set(keep)
        for n in keep:
            self.index(n)
        positions = [i for i, (n, _) in enumerate(self.variables) if n in keep]
        variables = tuple(self.variables[i] for i in positions)
        of = _projector(positions)
        nums: dict[tuple[int, ...], int] = {}
        for cell, n in self.nums.items():
            sub = of(cell)
            nums[sub] = nums.get(sub, 0) + n
        return FiniteDistribution._derived(variables, *_lowest_terms(self.den, nums))

    def _name_sequence(self, names: Iterable[str]) -> list[str]:
        # sets fall back to declaration order; sequences keep the caller's order
        if isinstance(names, (set, frozenset)):
            chosen = set(names)
            return [n for n, _ in self.variables if n in chosen]
        out = list(names)
        if len(set(out)) != len(out):
            raise InvalidQuery(f"duplicate variable names in {out}")
        return out

    def conditional(self, target: Iterable[str], given: Iterable[str]) -> "ConditionalTable":
        """Conditional table of ``target`` given ``given``.

        Rows are indexed by every cell of the given-product space, in the
        caller's variable order; a row whose conditioning event has zero
        probability is undefined.
        """
        target = self._name_sequence(target)
        given = self._name_sequence(given)
        if set(target) & set(given):
            raise InvalidQuery(f"target and given overlap: {sorted(set(target) & set(given))}")
        if not target:
            raise InvalidQuery("target set is empty")
        t_pos = [self.index(n) for n in target]
        g_pos = [self.index(n) for n in given]
        t_vars = tuple(self.variables[i] for i in t_pos)
        g_vars = tuple(self.variables[i] for i in g_pos)
        t_of, g_of = _projector(t_pos), _projector(g_pos)
        # integer numerators over the table's shared denominator, which
        # cancels in every row
        joint: dict[tuple, dict[tuple, int]] = {}
        for cell, n in self.nums.items():
            g, t = g_of(cell), t_of(cell)
            row = joint.get(g)
            if row is None:
                joint[g] = {t: n}
            else:
                row[t] = row.get(t, 0) + n
        # every given-cell in order; those with no mass stay undefined
        keys = dict.fromkeys(itertools.product(*(range(k) for _, k in g_vars)))
        for g, row in joint.items():
            d = sum(row.values())
            c = math.gcd(d, *row.values())
            items = sorted(row.items())
            keys[g] = (d, *items) if c == 1 else (d // c, *((t, n // c) for t, n in items))
        return ConditionalTable(t_vars, g_vars, None, _keys=keys)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "variables": {n: k for n, k in self.variables},
            "entries": [
                {"cell": list(cell), "p": str(p)} for cell, p in self.support()
            ],
        }

    @classmethod
    def from_json(cls, document) -> "FiniteDistribution":
        if not isinstance(document, Mapping):
            raise InvalidDocument("distribution spec must be a JSON object")
        unknown = set(document) - {"variables", "entries"}
        if unknown:
            raise InvalidDocument(f"unexpected distribution fields: {sorted(unknown)}")
        variables = document.get("variables")
        if not isinstance(variables, Mapping) or not variables:
            raise InvalidDocument("'variables' must be a non-empty object")
        entries = document.get("entries", [])
        if not isinstance(entries, (list, tuple)):
            raise InvalidDocument(f"'entries' must be a list, got {entries!r}")
        mass: dict[tuple, tuple[int, int]] = {}
        for entry in entries:
            if not (type(entry) is dict or isinstance(entry, Mapping)) or entry.keys() != {"cell", "p"}:
                raise InvalidDocument(f"bad entry: {entry!r}")
            cell = entry["cell"]
            if not isinstance(cell, (list, tuple)):
                raise InvalidDocument(f"cell must be a list of state indices, got {cell!r}")
            cell = tuple(cell)
            for s in cell:
                if type(s) is not int:
                    raise InvalidDocument(f"state index must be an integer, got {s!r}")
            if cell in mass:
                raise InvalidDocument(f"duplicate cell {list(cell)}")
            mass[cell] = _literal(entry["p"])
        return cls(variables.items(), mass, _parsed=True)


class ConditionalTable:
    """Rows of exact conditional distributions, undefined where mass is zero.

    ``row_keys`` maps each given-cell to ``None`` or to its row in lowest
    terms as ``(d, (t, n), ...)`` with zero entries dropped, so rows are
    equal exactly when their keys are. ``row`` and ``rows`` render fresh
    ``{t: Fraction}`` dicts from them on each read. ``_keys`` are keys
    :meth:`FiniteDistribution.conditional` built, not checked again.
    """

    __slots__ = ("target", "given", "row_keys")

    def __init__(self, target, given, rows, *, _keys=None):
        if _keys is None:
            _keys = {}
            for cell, row in dict(rows).items():
                if row is None:
                    _keys[cell] = None
                    continue
                try:
                    # the lcm of reduced denominators leaves the row in lowest terms
                    den = math.lcm(*(q.denominator for q in row.values()))
                    items = sorted((t, q.numerator * (den // q.denominator)) for t, q in row.items() if q)
                except AttributeError:
                    raise InvalidDocument(f"conditional row at {cell} holds a value that is not exact") from None
                if sum(n for _, n in items) != den:
                    raise InvalidDocument(f"conditional row at {cell} does not sum to 1")
                _keys[cell] = (den, *items)
        object.__setattr__(self, "target", tuple(target))
        object.__setattr__(self, "given", tuple(given))
        object.__setattr__(self, "row_keys", _keys)

    def __setattr__(self, name, value):
        raise AttributeError("ConditionalTable instances are immutable")

    @property
    def rows(self) -> dict:
        return {g: self.row(g) for g in self.row_keys}

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.target)

    @property
    def given_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.given)

    def row(self, cell: Sequence[int]):
        cell = tuple(cell)
        if cell not in self.row_keys:
            raise InvalidQuery(f"no row for given-cell {cell}")
        key = self.row_keys[cell]
        return None if key is None else {t: Fraction(n, key[0]) for t, n in key[1:]}

    def __eq__(self, other):
        if not isinstance(other, ConditionalTable):
            return NotImplemented
        return (
            self.target == other.target
            and self.given == other.given
            and self.row_keys == other.row_keys
        )

    def __repr__(self):
        return f"ConditionalTable({self.target_names} | {self.given_names})"


@dataclass
class DependenceReport:
    """Outcome of a functional-dependence test over a row family."""

    holds: bool
    witness: tuple | None = None
    skipped: int = 0


def depends_only_on(
    rows: Mapping[tuple, object],
    context_vars: Sequence[str],
    projection: Iterable[str],
) -> DependenceReport:
    """Test whether a context-indexed row family depends only on a projection.

    ``rows`` maps context cells (tuples aligned with ``context_vars``) to row
    objects supporting equality, or ``None`` for undefined rows. Two contexts
    that agree on the projected coordinates must carry equal rows; undefined
    rows are skipped and counted. On failure the first violating context pair
    in enumeration order is returned.
    """
    context_vars = tuple(context_vars)
    projection = set(projection)
    extra = projection - set(context_vars)
    if extra:
        raise InvalidQuery(f"projection names unknown context variables: {sorted(extra)}")
    proj_pos = [i for i, v in enumerate(context_vars) if v in projection]
    reference: dict[tuple, tuple[object, tuple]] = {}
    skipped = 0
    for ctx in sorted(rows):
        row = rows[ctx]
        if row is None:
            skipped += 1
            continue
        key = tuple(ctx[i] for i in proj_pos)
        if key not in reference:
            reference[key] = (row, ctx)
        elif reference[key][0] != row:
            ref_ctx = reference[key][1]
            witness = (
                tuple(zip(context_vars, ref_ctx)),
                tuple(zip(context_vars, ctx)),
            )
            return DependenceReport(False, witness, skipped)
    return DependenceReport(True, None, skipped)


def rows_equal(
    left: Mapping[tuple, object],
    right: Mapping[tuple, object],
) -> tuple[bool, tuple | None, int]:
    """Compare two row maps on commonly defined rows, skipping undefined ones.

    Returns (equal, first witness cell, skipped count).
    """
    if set(left) != set(right):
        raise InvalidQuery("row maps are indexed by different given-cells")
    skipped = 0
    for cell in sorted(left):
        a, b = left[cell], right[cell]
        if a is None or b is None:
            skipped += 1
            continue
        if a != b:
            return False, cell, skipped
    return True, None, skipped


def diagonal_mismatches(with_iv: FiniteDistribution, without: FiniteDistribution, pinned: Mapping[int, int]):
    """``(cell, lhs, rhs)`` for each cell, in lexicographic order, whose pinned
    positions hold the given values and where two laws over the same
    variables disagree; ``lhs`` is from ``with_iv``, ``rhs`` from ``without``."""
    axes = [(pinned[i],) if i in pinned else range(k) for i, (_, k) in enumerate(with_iv.variables)]
    (d_l, left), (d_r, right) = (with_iv.den, with_iv.nums), (without.den, without.nums)
    for cell in itertools.product(*axes):
        a, b = left.get(cell, 0), right.get(cell, 0)
        if a * d_r != b * d_l:
            yield cell, Fraction(a, d_l), Fraction(b, d_r)


def product_cells(cards: Sequence[int]) -> Iterable[tuple[int, ...]]:
    return itertools.product(*(range(k) for k in cards))


def jsonable(value):
    """Recursively convert report payloads into JSON-serializable data."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Mapping):
        return {str(k) if not isinstance(k, str) else k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    return value
