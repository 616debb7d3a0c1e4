"""Boolean minimization of approximation regions into decision rules.

Each lattice label in a region is a total minterm over the fact
literals (bit set = fact present, bit clear = fact absent).  A region
minimizes to an irredundant sum-of-products covering exactly its label
set -- no don't-cares.  Sets of labels, cubes and primes are Python ints
used as bitsets throughout.

Prime implicants.  A cube is a pair (bits, dash_mask).  The region is
one 2**n-bit truth table, and for every dash mask a table ``found[mask]``
has bit b set when the cube (b, mask) is an implicant.  With ``low`` the
lowest dash of ``mask`` and ``below`` the table of ``mask ^ low``, a cube
is an implicant when both of its halves are::

    found[mask] = below & (below >> low) & clear[low]

where ``clear[low]`` keeps the positions whose ``low`` bit is 0.  A cube
is prime when no cube one dash wider covers it, that is, when its bit is
clear in ``wider | wider << step`` for every table ``wider`` at
``mask | step``.  The sweep goes one popcount level of masks at a time,
so only two adjacent levels of tables are alive at once.

Exact cover, for orders up to EXACT_COVER_LIMIT.  Each prime's labels
form a bitset.  ``once``/``twice`` accumulators find the labels covered
by a single prime, whose primes are essential.  Every label the
essentials leave is a row: the bitset of the primes covering it.
Duplicate rows, and rows holding another row, are dropped; a selection
that hits the smaller row hits the larger one, so this row dominance
leaves the minimal selections unchanged.  (Column dominance is not used:
it could drop the prime that the ``_cover_cost`` tie-break picks.)
Petrick's method expands the rows into every irredundant selection;
selections are ranked by (terms, literals) from their masks, and only
those tied on that pair are compared by their term text.

Above EXACT_COVER_LIMIT a greedy cover is used.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import errors
from ._num import ZERO
from .evidence import TruthValue
from .lattice import _level_masks

EXACT_COVER_LIMIT = 12

# A product term maps fact ids to polarities; stored as a frozenset of
# (fact_id, positive) literals.  The empty term is the constant TRUE.
Term = FrozenSet[Tuple[int, bool]]


def _term_key(term: Term):
    return tuple(sorted(term))


def _literal_text(fid: int, positive: bool) -> str:
    return "f%d" % fid if positive else "NOT f%d" % fid


def _term_masks(term: Term) -> Optional[Tuple[int, int]]:
    """A term as (care, want) bitsets over fact positions: a label
    satisfies it when ``label & care == want``.  None if it never holds."""
    pos = neg = 0
    for fid, positive in term:
        if positive:
            pos |= 1 << (fid - 1)
        else:
            neg |= 1 << (fid - 1)
    if pos & neg:
        return None
    return pos | neg, pos


class SopExpression:
    """An irredundant sum of product terms over n fact literals."""

    __slots__ = ("n", "terms", "_masks")

    def __init__(self, n: int, terms: Iterable[Term]):
        self.n = int(n)
        self.terms = frozenset(frozenset(t) for t in terms)
        self._masks = [m for m in map(_term_masks, self.terms) if m is not None]

    def evaluate(self, label: str) -> bool:
        if len(label) != self.n:
            raise errors.OutOfRange("label %r is not of order %d" % (label, self.n))
        bits = int(label, 2)
        return any(bits & care == want for care, want in self._masks)

    def truth_set(self) -> FrozenSet[str]:
        # each term is the cube of the labels it leaves free
        full = (1 << self.n) - 1
        table = 0
        for care, want in self._masks:
            if not want & ~full:
                table |= _subcube_cells(full & ~care) << want
        fmt = "0%db" % self.n
        return frozenset(format(v, fmt) for v in _bit_positions(table))

    def ordered_terms(self) -> List[Term]:
        return sorted(self.terms, key=_term_key)

    def __str__(self):
        if not self.terms:
            return "FALSE"
        if frozenset() in self.terms:
            return "TRUE"
        parts = []
        for term in self.ordered_terms():
            lits = [_literal_text(f, p) for f, p in sorted(term)]
            text = " AND ".join(lits)
            parts.append("(%s)" % text if len(self.terms) > 1 and len(lits) > 1
                         else text)
        return " OR ".join(parts)

    def factored(self) -> str:
        """Single-level factoring of the literals shared by every term."""
        if not self.terms or frozenset() in self.terms:
            return str(self)
        ordered = self.ordered_terms()
        common = frozenset.intersection(*ordered)
        if len(ordered) == 1 or not common:
            return str(self)
        head = " AND ".join(_literal_text(f, p) for f, p in sorted(common))
        tails = []
        for term in ordered:
            rest = sorted(term - common)
            if not rest:
                return str(self)  # a term equals the common part; don't factor
            text = " AND ".join(_literal_text(f, p) for f, p in rest)
            tails.append("(%s)" % text if len(rest) > 1 else text)
        return "%s AND (%s)" % (head, " OR ".join(tails))

    def __eq__(self, other):
        return (isinstance(other, SopExpression)
                and other.n == self.n and other.terms == self.terms)

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self):
        return "SopExpression(n=%d, %s)" % (self.n, str(self))


# --- prime implicants from truth tables -------------------------------------

@lru_cache(maxsize=None)
def _clear_tables(n: int) -> Tuple[int, ...]:
    """Per fact position p, the bitset of the 2**n labels whose bit p is 0."""
    size = 1 << n
    tables = []
    for p in range(n):
        table = (1 << (1 << p)) - 1
        period = 2 << p
        while period < size:
            table |= table << period
            period *= 2
        tables.append(table)
    return tuple(tables)


def _bit_positions(x: int) -> List[int]:
    """The positions of the set bits of x, ascending."""
    text = bin(x)[:1:-1]
    out = []
    pos = text.find("1")
    while pos >= 0:
        out.append(pos)
        pos = text.find("1", pos + 1)
    return out


def _prime_implicants(minterms: Sequence[int], n: int) -> List[Tuple[int, int]]:
    """All prime implicants as (bits, dash_mask) cubes."""
    clear = _clear_tables(n)
    units = [1 << p for p in range(n)]
    table = 0
    for m in minterms:
        table |= 1 << m
    # level[mask]: bit b set when the cube (b, mask) is an implicant;
    # only masks of one popcount with a nonzero table are kept
    level = {0: table} if table else {}
    primes = []
    k = 0
    while level:
        k += 1
        wider = {}
        for mask in _level_masks(n, k) if k <= n else ():
            low = mask & -mask
            below = level.get(mask ^ low)
            if below:
                found = below & (below >> low) & clear[low.bit_length() - 1]
                if found:
                    wider[mask] = found
        for mask, found in level.items():
            covered = 0
            for step in units:
                if not mask & step:
                    up = wider.get(mask | step)
                    if up:
                        covered |= up | up << step
            for bits in _bit_positions(found & ~covered):
                primes.append((bits, mask))
        level = wider
    primes.sort()
    return primes


def _subcube_cells(mask: int) -> int:
    """Bitset of the labels of the cube (0, mask): every submask of mask."""
    cells = 1
    for step in _bit_positions(mask):
        cells |= cells << (1 << step)
    return cells


def _covers(cube: Tuple[int, int], minterm: int) -> bool:
    bits, mask = cube
    return minterm & ~mask == bits


def _cube_term(cube: Tuple[int, int], n: int) -> Term:
    bits, mask = cube
    return frozenset((pos + 1, bool(bits >> pos & 1))
                     for pos in range(n) if not mask >> pos & 1)


def _cover_cost(cover: Iterable[Term]):
    terms = sorted(cover, key=_term_key)
    return (len(terms), sum(len(t) for t in terms),
            tuple(_term_key(t) for t in terms))


def _minimal(sets: Iterable[int]) -> List[int]:
    """The inclusion-minimal bitsets among ``sets``, by ascending size."""
    kept: List[int] = []
    for cand in sorted(set(sets), key=lambda s: (s.bit_count(), s)):
        for keep in kept:
            if keep & cand == keep:
                break
        else:
            kept.append(cand)
    return kept


def _petrick(rows: Sequence[int]) -> List[int]:
    """All irredundant selections hitting every row, as index bitsets.

    The selections so far are an antichain.  Those that hit the next row
    stay as they are; each other one grows by every pick of the row.  A
    grown ``partial | pick`` can only be absorbed by a kept selection
    ``keep`` that holds ``pick`` with ``keep ^ pick`` inside ``partial``,
    since two grown selections never contain one another.
    """
    products = [0]
    for row in rows:
        kept = [p for p in products if p & row]
        missing = [p for p in products if not p & row]
        grown = []
        for pick in (1 << i for i in _bit_positions(row)):
            rests = [keep ^ pick for keep in kept if keep & pick]
            for partial in missing:
                for rest in rests:
                    if rest & partial == rest:
                        break
                else:
                    grown.append(partial | pick)
        products = kept + grown
    return products


def _exact_cover(primes, n) -> List[Term]:
    cells = [_subcube_cells(mask) << bits for bits, mask in primes]
    once = twice = 0
    for c in cells:
        twice |= once & c
        once |= c
    single = once & ~twice
    essential = covered = 0
    for i, c in enumerate(cells):
        if c & single:
            essential |= 1 << i
            covered |= c
    best = [essential]
    remaining = once & ~covered
    if remaining:
        rows: Dict[int, int] = {}
        for i, c in enumerate(cells):
            for m in _bit_positions(c & remaining):
                rows[m] = rows.get(m, 0) | 1 << i
        # a row holding another row is hit by every selection hitting
        # that one, so dropping it leaves the minimal selections as they are
        literals = [n - mask.bit_count() for _, mask in primes]
        best_key = None
        for selection in _petrick(_minimal(rows.values())):
            key = (selection.bit_count(),
                   sum(literals[i] for i in _bit_positions(selection)))
            if best_key is None or key < best_key:
                best_key, best = key, [essential | selection]
            elif key == best_key:
                best.append(essential | selection)
    cover = min(_cover_cost(_cube_term(primes[i], n)
                            for i in _bit_positions(chosen))
                for chosen in best)
    return [frozenset(t) for t in cover[2]]


def _greedy_cover(primes, minterms, n) -> List[Term]:
    uncovered = set(minterms)
    chosen = []
    while uncovered:
        def gain(item):
            i, p = item
            hits = sum(1 for m in uncovered if _covers(p, m))
            return (-hits, len(_cube_term(p, n)), p)
        i, p = min(enumerate(primes), key=gain)
        hits = {m for m in uncovered if _covers(p, m)}
        if not hits:
            raise AssertionError("prime cover exhausted with minterms left")
        chosen.append(p)
        uncovered -= hits
    # reverse-delete any pick made redundant by later ones: a pick can go
    # when the others cover every minterm it covers
    kept = list(chosen)
    for cube in chosen:
        trial = [c for c in kept if c != cube]
        if trial and all(any(_covers(c, m) for c in trial)
                         for m in minterms if _covers(cube, m)):
            kept = trial
    return [_cube_term(c, n) for c in kept]


def minimize(minterms: Iterable[str], n: int) -> SopExpression:
    """Minimal sum of products whose truth set is exactly the label set.

    Raises:
        EmptyMintermSet: nothing to cover.
        OutOfRange: a label of the wrong length or alphabet.
    """
    labels = sorted(set(minterms))
    if not labels:
        raise errors.EmptyMintermSet("no minterms to minimize")
    values = []
    for label in labels:
        if len(label) != n or set(label) - {"0", "1"}:
            raise errors.OutOfRange("bad minterm label %r for order %d" % (label, n))
        values.append(int(label, 2))
    primes = _prime_implicants(values, n)
    if n <= EXACT_COVER_LIMIT:
        terms = _exact_cover(primes, n)
    else:
        terms = _greedy_cover(primes, values, n)
    return SopExpression(n, terms)


# --- rule emission ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class MinimizedRule:
    """One minimized decision rule with its quality measures."""

    condition: SopExpression
    disease: str
    vd: TruthValue
    kind: str
    source_labels: FrozenSet[str]
    metrics: Optional[object] = None


_REGIONS = {
    "certain": (("lower1", TruthValue.PRESENT), ("lower2", TruthValue.ABSENT)),
    "uncertain": (("boundary1", TruthValue.INCONCLUSIVE),),
    "possible": (("upper1", TruthValue.PRESENT), ("upper2", TruthValue.ABSENT)),
}


def generate_rules(kb, approx: Mapping[str, "ApproximationSets"],
                   kinds: Sequence[str] = ("certain",)) -> List[MinimizedRule]:
    """Minimize the selected regions of every disease into rules.

    One rule is emitted per nonempty (disease, region) pair; a region's
    labels minimize together, so conditions that admit a shared cover
    come out already merged.  Output is ordered by disease and then by
    descending reliability strength.

    A possible-rule region whose definite class is empty (everything in
    it is inconclusive) has no denominator to measure against; such a
    rule is emitted with ``metrics`` left as None and sorts after its
    measured siblings.
    """
    from . import metrics as _metrics  # deferred: metrics reads rule shapes

    for kind in kinds:
        if kind not in _REGIONS:
            raise errors.OutOfRange("unknown rule kind %r" % (kind,))
    rules = []
    for disease in sorted(approx):
        sets = approx[disease]
        for kind in kinds:
            for region, vd in _REGIONS[kind]:
                labels = frozenset(getattr(sets, region))
                if not labels:
                    continue
                rule = MinimizedRule(minimize(labels, kb.n), disease, vd,
                                     kind, labels)
                try:
                    rule = dataclasses.replace(
                        rule, metrics=_metrics.measure(rule, kb))
                except errors.ZeroMass:
                    pass
                rules.append(rule)
    rules.sort(key=lambda r: (
        r.disease,
        -(r.metrics.strength if r.metrics is not None else ZERO),
        int(r.vd)))
    return rules


if __name__ == "__main__":
    # two worked four-variable covers, one factorable
    for shown in ({"1000", "1001", "1101", "1100"},
                  {"1100", "1101", "1001", "1111", "1011", "1010", "1110"}):
        expr = minimize(shown, 4)
        print(sorted(shown), "->", expr, "| factored:", expr.factored())
