"""Boolean minimization of approximation regions into decision rules.

Each lattice label in a region is a total minterm over the fact
literals (bit set = fact present, bit clear = fact absent).  A region
minimizes to an irredundant sum-of-products covering exactly its label
set -- no don't-cares.  Sets of labels, cubes and primes are Python ints
used as bitsets throughout, and a cover stays a list of (bits,
dash_mask) cubes up to ``SopExpression``.  That stores each term once,
as its literals ascending by fact, and the terms in ascending order of
those tuples (term-key order), which every text form reads as it is.

Prime implicants, from one table over all 3**n cubes.  A cube's index
has base-3 digit p equal to 0 (fact p absent), 1 (present) or 2 (dash),
and the table has the bit of every implicant set.  It is kept in blocks:
the low _BLOCK_DIGITS digits index the bits of an int, the digits above
them key a dict, and a block with no implicant is absent, so a sparse
region builds few blocks.  A region comes as one int over masks
(``lattice._minterms``), and the minterms of a block of w digits are its
2**w-bit slice, which w - 1 mask-and-shift passes spread into the cube
table (``_spread``): from the top digit i down, the bits whose
binary digit i is 1 move up by 3**i - 2**i, to where their ternary
digit i is 1.  Each digit p of weight s = 3**p then takes one merge
pass, within a block::

    imp |= (imp & (imp >> s)) << 2*s

and, for a key digit, the block keyed with digit 2 is the AND of those
keyed with 0 and 1: a cube is an implicant when its halves with digit p
at 0 (index i) and at 1 (index i + s) are, and its index is i + 2*s.
The pass needs no mask, as no cube has a dash at digit p before it.  A
cube with digit p of 0 or 1 is prime unless its cube with a dash there
is an implicant: within a block, with ``dashed = imp & two_p`` (the
indices whose digit p is 2), the covered cubes are ``dashed >> s |
dashed >> 2*s``; for a key digit, the block keyed with 2 covers those
keyed with 0 and 1.  The primes are the set bits left uncovered, read
out with ``lattice._bit_positions``.  The table costs 3**n bits where a
2**n-bit table per dash mask cost 4**n.

Exact cover, for orders up to EXACT_COVER_LIMIT.  ``once``/``twice``
accumulators over the primes' label bitsets find the labels covered by
a single prime, whose primes are essential.  Every label they leave is a
row: the bitset of the primes (columns) covering it.  Covers rank by
(terms, literals, sorted term keys): each prime weighs BIG + literals,
so one integer sum ranks the first two, and the columns are numbered in
term-key order for the third.  A branch-and-bound search (Coudert,
*Two-level logic minimization: an overview*, 1994) reduces the rows
once, at the root, and runs two passes from there.  Pass 1 finds the
least weight C, branching on the row with the fewest columns and pruning
a node whose cost plus a lower bound (the cheapest columns of a greedy
set of rows sharing no column) reaches the best cover so far.  Pass 2
walks the columns in key order, taking each before leaving it, prunes
at cost plus bound above C and stops at the first cover: of the covers
of one size, that walk reaches the one with the least sorted term keys
first.  Every other node of both passes takes the column of a
single-column row, drops rows holding another row, and drops a column
whose rows all hold (their AND has) another column of lower (weight,
key): a cover with it can swap it for that one and come out lighter or
earlier in key order, so neither pass loses the cover it looks for.

Both passes share COVER_NODE_BUDGET nodes, each counting the root.  A
region that needs more takes the greedy cover, as does every region
above EXACT_COVER_LIMIT, and its expression's ``minimal`` is False.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import errors, metrics
from ._num import ZERO, fsum
from ._record import Record, set_field
from .evidence import TruthValue
from .lattice import DEFAULT_ORDER_CAP, _bit_positions, _check_order, _minterms, _skeleton
from .roughset import ApproximationSets, _labels, _regions

EXACT_COVER_LIMIT = 12
# Search nodes the two passes of one region's exact cover share.  Seeded
# half-density order-7 regions need at most about 2,000 and order-8 ones
# about 1,000 in the median.  A node costs roughly 0.1-0.5 ms at orders
# 7-10, so there a region that spends the budget ends within seconds; a
# node's cost grows with the cyclic core, to about 1 s on a dense order-12
# region.
COVER_NODE_BUDGET = 20_000

# A product term maps fact ids to polarities; ``terms`` gives each as a
# frozenset of (fact_id, positive) literals.  The empty term is TRUE.
Term = FrozenSet[Tuple[int, bool]]


# each literal's text, keyed as a term holds it: (fact id, polarity)
_LITERAL_TEXTS = {(fid, positive): "f%d" % fid if positive else "NOT f%d" % fid
                  for fid in range(1, DEFAULT_ORDER_CAP + 1) for positive in (True, False)}


def _term_masks(term) -> Optional[Tuple[int, int]]:
    """A term as (care, want) bitsets over fact positions: a label
    satisfies it when ``label & care == want``.  None if it never holds."""
    # sets of distinct bits, so each sum is their union
    pos = sum({1 << (fid - 1) for fid, positive in term if positive})
    neg = sum({1 << (fid - 1) for fid, positive in term if not positive})
    return None if pos & neg else (pos | neg, pos)


def _cube_literals(cube: Tuple[int, int], n: int) -> Tuple[Tuple[int, bool], ...]:
    """The literals of a (bits, dash_mask) cube, ascending by fact."""
    bits, mask = cube
    return tuple([(pos + 1, bits >> pos & 1 == 1)
                  for pos in range(n) if not mask >> pos & 1])


def _sum_text(terms, text) -> str:
    """The terms' AND texts joined by OR, ``text`` spelling each (fact id,
    polarity) literal; among several, a multi-literal term is bracketed."""
    parts = [" AND ".join(map(text, term)) for term in terms]
    if len(parts) > 1:
        parts = ["(%s)" % text if len(term) > 1 else text
                 for term, text in zip(terms, parts)]
    return " OR ".join(parts)


class SopExpression:
    """An irredundant sum of product terms over n fact literals, stored in
    term-key order.  An order outside 1..DEFAULT_ORDER_CAP, or a term that
    is not a collection of (fact id in 1..n, bool) literals, is refused."""

    __slots__ = ("n", "minimal", "_terms", "_masks")

    def __init__(self, n: int, terms: Iterable[Term]):
        _check_order(n)
        self.n = n
        try:
            terms = [frozenset(term) for term in terms]
            bad = [p for term in terms for _, p in term if not isinstance(p, bool)]
        except (TypeError, ValueError):
            raise errors.OutOfRange("a term must be a collection of (fact, polarity) "
                                    "literals") from None
        if bad:
            raise errors.OutOfRange("literal polarity %r is not a bool" % (bad[0],))
        outside = [fid for term in terms for fid, _ in term
                   if not isinstance(fid, int) or not 1 <= fid <= n]
        if outside:
            raise errors.OutOfRange("literal on fact %r outside 1..%d"
                                    % (min(outside, key=lambda f: errors.naming_key(f, int)), n))
        stored = {tuple(sorted(term)) for term in terms}
        self._terms = tuple(sorted(stored))
        self._masks = [m for m in map(_term_masks, stored) if m is not None]
        # True when ``minimize`` proved the cover least; not compared
        self.minimal = False

    @classmethod
    def _from_cubes(cls, n: int, cubes, minimal: bool, terms=None) -> "SopExpression":
        """The sum of distinct (bits, dash_mask) cubes, as a cover gives
        them; ``terms``, when given, are their literal tuples."""
        self = cls.__new__(cls)
        self.n, self.minimal = n, minimal
        if terms is None:
            terms = [_cube_literals(cube, n) for cube in cubes]
        self._terms = tuple(sorted(terms))
        full = (1 << n) - 1
        self._masks = [(full & ~mask, bits) for bits, mask in cubes]
        return self

    @property
    def terms(self) -> FrozenSet[Term]:
        return frozenset(map(frozenset, self._terms))

    def evaluate(self, label: str) -> bool:
        """Whether the label satisfies a term; anything but an order-n
        label raises OutOfRange."""
        try:
            bits = _skeleton(self.n).masks[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise errors.OutOfRange("bad label %r for order %d" % (label, self.n)) from None
        return any(bits & care == want for care, want in self._masks)

    def truth_set(self) -> FrozenSet[str]:
        # each term is the cube of the labels it leaves free
        full = (1 << self.n) - 1
        table = 0
        for care, want in self._masks:
            if not want & ~full:
                table |= _subcube_cells(full & ~care) << want
        return frozenset(map(_skeleton(self.n).labels.__getitem__, _bit_positions(table)))

    def ordered_terms(self) -> List[Term]:
        return [frozenset(term) for term in self._terms]

    def phrase(self, literal) -> str:
        """The sum of products, each literal spelled by ``literal(fid, positive)``."""
        return self._text(lambda lit: literal(*lit))

    def _text(self, text) -> str:
        if not self._terms:
            return "FALSE"
        if not self._terms[0]:  # the empty term sorts first
            return "TRUE"
        return _sum_text(self._terms, text)

    def __str__(self):
        return self._text(_LITERAL_TEXTS.__getitem__)

    def factored(self) -> str:
        """Single-level factoring of the literals shared by every term."""
        terms = self._terms
        common = set(terms[0]).intersection(*terms[1:]) if len(terms) > 1 else ()
        rests = [tuple(lit for lit in term if lit not in common) for term in terms]
        if not common or not all(rests):  # nor when a term is the shared part
            return str(self)
        head = tuple(lit for lit in terms[0] if lit in common)
        return "%s AND (%s)" % (_sum_text([head], _LITERAL_TEXTS.__getitem__),
                                _sum_text(rests, _LITERAL_TEXTS.__getitem__))

    def __eq__(self, other):
        return (isinstance(other, SopExpression)
                and other.n == self.n and other._terms == self._terms)

    def __hash__(self):
        return hash((self.n, self._terms))

    def __repr__(self):
        return "SopExpression(n=%d, %s)" % (self.n, str(self))


# --- prime implicants from the cube table -----------------------------------

# Digits of the cube index held in one block of the table; the digits
# above them key the blocks.  Blocks of 8 or 10 digits take the same time
# on seeded order-14 and -16 regions, and 12 take half as long again.
_BLOCK_DIGITS = 10


@lru_cache(maxsize=None)
def _ternary_cubes(k: int) -> Tuple[Tuple[int, int], ...]:
    """Over k facts, the (bits, mask) of the cube of each index."""
    cubes = []
    for i in range(3 ** k):
        bits = mask = 0
        for j in range(k):
            i, digit = divmod(i, 3)
            if digit == 1:
                bits |= 1 << j
            elif digit == 2:
                mask |= 1 << j
        cubes.append((bits, mask))
    return tuple(cubes)


def _runs(length: int, start: int, period: int, size: int) -> int:
    """The bitset below bit ``size`` of runs of ``length`` ones from
    ``start``, one every ``period``."""
    mask = ((1 << length) - 1) << start
    while period < size:
        mask |= mask << period
        period *= 2
    return mask & ((1 << size) - 1)


@lru_cache(maxsize=None)
def _dash_masks(w: int) -> Tuple[Tuple[int, int], ...]:
    """Per digit of a w-digit block, (its weight s, the bitset of the
    block's indices whose digit is 2): runs of s ones from 2s, every 3s."""
    return tuple((3 ** p, _runs(3 ** p, 2 * 3 ** p, 3 ** (p + 1), 3 ** w))
                 for p in range(w))


@lru_cache(maxsize=None)
def _spread_masks(w: int) -> Tuple[Tuple[int, int], ...]:
    """Per digit i of a w-digit block, from the top down to digit 1 (digit
    0 stays): (the shift 3**i - 2**i, the bitset of the positions p below
    3**w with p mod 3**(i+1) in [2**i, 2**(i+1))): runs of 2**i ones
    from 2**i, every 3**(i+1)."""
    return tuple((3 ** i - 2 ** i, _runs(2 ** i, 2 ** i, 3 ** (i + 1), 3 ** w))
                 for i in range(w - 1, 0, -1))


def _spread(table: int, w: int) -> int:
    """A w-digit block's minterm table moved into its cube table: bit m
    goes to the cube index of minterm m, one digit at a time."""
    for shift, mask in _spread_masks(w):
        moved = table & mask
        table ^= moved ^ moved << shift
    return table


def _prime_implicants(region: int, n: int) -> List[Tuple[int, int]]:
    """All prime implicants of the region, an int over masks, as (bits,
    dash_mask) cubes, sorted."""
    w = min(n, _BLOCK_DIGITS)
    top = n - w
    # a block index splits into its low ``half`` digits and the rest, and
    # each part, like the key, is read from its own table
    half = (w + 1) // 2
    low_cubes = _ternary_cubes(half)
    high_cubes = _ternary_cubes(w - half)
    key_cubes = _ternary_cubes(top)
    scale = 3 ** half
    low_bits = (1 << (1 << w)) - 1
    masks = _dash_masks(w)
    blocks = {}
    for high in range(1 << top):
        table = region >> (high << w) & low_bits  # the block's minterms
        if not table:
            continue
        imp = _spread(table, w)
        for step, _ in masks:
            imp |= (imp & (imp >> step)) << 2 * step
        blocks[int(format(high, "b"), 3)] = imp  # keyed by the top digits' cube index
    key_steps = [3 ** j for j in range(top)]
    for step in key_steps:
        for key in list(blocks):
            if key // step % 3 == 0 and key + step in blocks:
                both = blocks[key] & blocks[key + step]
                if both:
                    blocks[key + 2 * step] = both
    primes = []
    for key, imp in blocks.items():
        covered = 0
        for step, mask in masks:
            dashed = imp & mask
            covered |= dashed >> step | dashed >> 2 * step
        for step in key_steps:
            digit = key // step % 3
            if digit != 2:
                covered |= blocks.get(key + (2 - digit) * step, 0)
        key_bits, key_mask = key_cubes[key]
        key_bits <<= w
        key_mask <<= w
        for index in _bit_positions(imp & ~covered):
            high_index, low_index = divmod(index, scale)
            high_bits, high_mask = high_cubes[high_index]
            bits, mask = low_cubes[low_index]
            primes.append((key_bits | high_bits << half | bits,
                           key_mask | high_mask << half | mask))
    primes.sort()
    return primes


def _subcube_cells(mask: int) -> int:
    """Bitset of the labels of the cube (0, mask): every submask of mask."""
    cells = 1
    while mask:
        low = mask & -mask
        cells |= cells << low  # the submasks so far, with the bit of low and without
        mask ^= low
    return cells


def _prime_cells(primes) -> List[int]:
    subcubes = {mask: _subcube_cells(mask) for mask in {mask for _, mask in primes}}
    return [subcubes[mask] << bits for bits, mask in primes]


def _minimal(sets: Iterable[int]) -> List[int]:
    """The inclusion-minimal bitsets among ``sets``, by ascending size."""
    kept: List[int] = []
    for cand in sorted(sorted(set(sets)), key=int.bit_count):
        for keep in kept:
            if keep & cand == keep:
                break
        else:
            kept.append(cand)
    return kept


def _dominated(rows: Sequence[int], below: Sequence[int]) -> int:
    """The columns whose rows all hold another column of lower (weight,
    index): their rows' AND meets ``below[c]``, the columns ranked under
    column c.  Such a column can always be swapped for that other one."""
    common: Dict[int, int] = {}
    for row in rows:
        rest = row
        while rest:
            col = rest & -rest
            common[col] = common.get(col, row) & row
            rest ^= col
    return sum(col for col, others in common.items()
               if others & below[col.bit_length() - 1])


def _reduce(rows: List[int], weights, below) -> Tuple[List[int], int, int]:
    """Forced picks, row dominance and column dominance until none applies:
    (rows left, the picks' cost, picks).  The rows left are an antichain
    of rows with two columns or more."""
    cost = picks = 0
    while True:
        # the column of a single-column row is picked; picking removes
        # rows whole, so no row becomes single
        forced = 0
        for row in rows:
            if not row & (row - 1):
                forced |= row
        if forced:
            rows = [row for row in rows if not row & forced]
            cost += sum(weights[i] for i in _bit_positions(forced))
            picks |= forced
        rows = _minimal(rows)
        drop = _dominated(rows, below)
        if not drop:
            return rows, cost, picks
        # every row holding a dropped column holds an undropped dominator
        rows = [row & ~drop for row in rows]


def _lower_bound(rows: Sequence[int], levels) -> int:
    """A cost no cover of ``rows`` beats: rows sharing no column need one
    column each, so a greedy set of them adds up their cheapest columns."""
    used = bound = 0
    for row in rows:
        if not row & used:
            used |= row
            for weight, columns in levels:
                if row & columns:
                    bound += weight
                    break
    return bound


def _least_cost(root, weights, levels, below, budget) -> Tuple[Optional[int], int]:
    """Pass 1: the least cost of a selection hitting every row, or None
    when the search needs more than ``budget`` nodes; and the nodes used.

    The search starts from ``root``, the reduced (rows, cost, picks).
    Below it a node picks a column, drops the columns its earlier
    siblings picked (their subtrees hold every cover with them) and
    reduces.  A node branches on the row with the fewest columns,
    cheapest column first.
    """
    best = sum(weights) + 1
    nodes = 0
    stack = [(root[0], root[1], 0, 0)]
    while stack:
        rows, cost, pick, tried = stack.pop()
        nodes += 1
        if nodes > budget:
            return None, nodes
        if pick:
            # rows are an antichain and ``tried`` lies inside the row
            # branched on, so no row is left empty
            rows = [row & ~tried for row in rows if not row & pick]
            rows, more, _ = _reduce(rows, weights, below)
            cost += weights[pick.bit_length() - 1] + more
        if not rows:
            best = min(best, cost)
            continue
        if cost + _lower_bound(rows, levels) >= best:
            continue
        branch = []
        tried = 0
        for _, columns in levels:
            for i in _bit_positions(rows[0] & columns):
                branch.append((rows, cost, 1 << i, tried))
                tried |= 1 << i
        stack.extend(reversed(branch))
    return best, nodes


def _first_cover(root, weights, levels, below, target, budget) -> Tuple[Optional[int], int]:
    """Pass 2: the first selection of cost ``target`` that a walk from
    ``root`` over the columns in index order, taking each before leaving
    it, reaches, or None past ``budget`` nodes; and the nodes used.

    Columns are numbered in term-key order, so of the covers of one size
    the walk reaches the one whose sorted term keys come first.  A column
    that no row holds is never taken: every cover with it is redundant.
    """
    nodes = 0
    stack = [root]
    while stack:
        rows, cost, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            return None, nodes
        if nodes > 1:  # every node but the root, which comes reduced
            rows, more, picks = _reduce(rows, weights, below)
            cost += more
            chosen |= picks
        if not rows:
            if cost <= target:
                return chosen, nodes
            continue
        if cost + _lower_bound(rows, levels) > target:
            continue
        col = min(row & -row for row in rows)
        # no reduced row is single, so leaving ``col`` empties none
        stack.append(([row & ~col for row in rows], cost, chosen))
        stack.append(([row for row in rows if not row & col],
                      cost + weights[col.bit_length() - 1], chosen | col))
    return None, nodes


def _exact_cover(primes, n) -> Optional[Tuple[List[Tuple[int, int]], list]]:
    """The least cover by (terms, literals, sorted term keys) and its
    cubes' literal tuples, or None when the search runs past
    COVER_NODE_BUDGET nodes."""
    cells = _prime_cells(primes)
    once = twice = 0
    for c in cells:
        twice |= once & c
        once |= c
    single = once & ~twice
    picks = []
    covered = 0
    for i, c in enumerate(cells):
        if c & single:
            picks.append(i)
            covered |= c
    terms = [_cube_literals(primes[i], n) for i in picks]
    remaining = once & ~covered
    if remaining:
        rows: Dict[int, int] = {}
        for i, c in enumerate(cells):
            for m in _bit_positions(c & remaining):
                rows[m] = rows.get(m, 0) | 1 << i
        held = 0
        for row in rows.values():
            held |= row
        # each alive prime's literal tuple, the columns in their order
        alive_terms = {i: _cube_literals(primes[i], n) for i in _bit_positions(held)}
        alive = sorted(alive_terms, key=alive_terms.__getitem__)
        column = {i: c for c, i in enumerate(alive)}
        matrix = [sum(1 << column[i] for i in _bit_positions(row)) for row in rows.values()]
        # one integer ranks (terms, literals): no cover has BIG literals
        big = n * len(primes) + 1
        weights = [big + n - primes[i][1].bit_count() for i in alive]
        # each weight's columns, ascending, and those ranked under each column
        below, lighter, by_weight = [0] * len(weights), 0, {}
        for c in sorted(range(len(weights)), key=weights.__getitem__):
            below[c], lighter = lighter, lighter | 1 << c
            by_weight[weights[c]] = by_weight.get(weights[c], 0) | 1 << c
        levels = list(by_weight.items())
        # both passes start from the root's reduction, which also makes the
        # rows an antichain: a column that only dominated rows hold enters
        # no reduced row
        root = _reduce(matrix, weights, below)
        target, spent = _least_cost(root, weights, levels, below, COVER_NODE_BUDGET)
        if target is None:
            return None
        chosen, _ = _first_cover(root, weights, levels, below, target,
                                 COVER_NODE_BUDGET - spent)
        if chosen is None:
            return None
        picks += [alive[c] for c in _bit_positions(chosen)]
        terms += [alive_terms[alive[c]] for c in _bit_positions(chosen)]
    return [primes[i] for i in picks], terms


def _greedy_cover(primes, region: int, n) -> List[Tuple[int, int]]:
    """Repeatedly pick the prime of least (-minterms it newly covers,
    literals, cube).  A prime's gain only falls as others are picked, so
    a stale heap key is a lower bound: the popped prime is re-keyed, and
    taken once its fresh key still leads (Minoux's lazy greedy, 1978)."""
    import heapq  # deferred: only regions past the exact cover get here

    cells = _prime_cells(primes)
    uncovered = region
    heap = [(-(cells[i] & uncovered).bit_count(), n - mask.bit_count(), (bits, mask), i)
            for i, (bits, mask) in enumerate(primes)]
    heapq.heapify(heap)
    chosen = []
    while uncovered:
        if not heap:
            raise AssertionError("prime cover exhausted with minterms left")
        _, literals, cube, i = heapq.heappop(heap)
        hits = (cells[i] & uncovered).bit_count()
        if not hits:
            continue
        key = (-hits, literals, cube, i)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        chosen.append(i)
        uncovered &= ~cells[i]
    # reverse-delete any pick made redundant by later ones: a pick can go
    # when the others cover every minterm it covers.  The others are the
    # earlier picks still kept and every later pick, whose unions are kept
    # as a running prefix and precomputed suffixes.
    suffix = [0] * (len(chosen) + 1)
    for j in range(len(chosen) - 1, -1, -1):
        suffix[j] = suffix[j + 1] | cells[chosen[j]]
    kept = []
    before = 0
    for j, i in enumerate(chosen):
        if cells[i] & ~(before | suffix[j + 1]):
            kept.append(i)
            before |= cells[i]
    return [primes[i] for i in kept]


def _cover(region: int, n: int) -> SopExpression:
    primes = _prime_implicants(region, n)
    cover = _exact_cover(primes, n) if n <= EXACT_COVER_LIMIT else None
    if cover is not None:
        cubes, terms = cover
        return SopExpression._from_cubes(n, cubes, True, terms)
    return SopExpression._from_cubes(n, _greedy_cover(primes, region, n), False)


def minimize(minterms: Iterable[str], n: int) -> SopExpression:
    """Minimal sum of products whose truth set is exactly the label set.

    The result's ``minimal`` is False when the cover is the greedy one:
    above EXACT_COVER_LIMIT, or when the exact search ran out of nodes.

    Raises:
        EmptyMintermSet: nothing to cover.
        OrderTooLarge: an order above DEFAULT_ORDER_CAP.
        OutOfRange: minterms that are a str or not a collection, an
            order that is not an int of at least 1, or a label that is
            not text of the order's length over "0" and "1"; the least
            such label is named.
    """
    labels = _labels(minterms, "minterms must be a collection of labels", list)
    if not labels:
        raise errors.EmptyMintermSet("no minterms to minimize")
    _check_order(n)
    return _cover(_minterms(labels, n), n)


# --- rule emission ----------------------------------------------------------

class MinimizedRule(Record):
    """One minimized decision rule with its quality measures."""

    __slots__ = ("condition", "disease", "vd", "kind", "source_labels", "metrics")

    def __init__(self, condition: SopExpression, disease: str, vd: TruthValue,
                 kind: str, source_labels: FrozenSet[str],
                 metrics: Optional[object] = None):
        set_field(self, "condition", condition)
        set_field(self, "disease", disease)
        set_field(self, "vd", vd)
        set_field(self, "kind", kind)
        set_field(self, "source_labels", source_labels)
        set_field(self, "metrics", metrics)

    @property
    def minimal(self) -> bool:
        """True when the condition is a proven least cover and False when
        it is the greedy one; it is not rendered."""
        return self.condition.minimal


# each kind's regions: (name, the stored regions it joins, vd); an upper
# region is its lower region plus the boundary
_REGIONS = {
    "certain": (("lower1", ("lower1",), TruthValue.PRESENT),
                ("lower2", ("lower2",), TruthValue.ABSENT)),
    "uncertain": (("boundary1", ("boundary1",), TruthValue.INCONCLUSIVE),),
    "possible": (("upper1", ("lower1", "boundary1"), TruthValue.PRESENT),
                 ("upper2", ("lower2", "boundary1"), TruthValue.ABSENT)),
}


def generate_rules(kb, approx: Mapping[str, ApproximationSets],
                   kinds: Sequence[str] = ("certain",)) -> List[MinimizedRule]:
    """Minimize the selected regions of every disease into rules.

    One rule is emitted per nonempty (disease, region) pair; a region's
    labels minimize together, so conditions that admit a shared cover
    come out already merged.  Output is ordered by disease and then by
    descending reliability strength.

    Each disease's regions go through ``ApproximationSets``, which refuses
    a label in two of them; ``approx`` that is not a mapping of disease
    names to regions, and ``kinds`` that are not a collection of kind
    names, raise OutOfRange.  Each stored region a rule needs is read once,
    in rule order, into one int over masks (OutOfRange names its least
    malformed label) whose cfs are summed per vd (DanglingLabel names its
    least undecided).  An upper region is its lower region's int ORed with
    the boundary's, and the rule's measures join their sums.

    A rule whose disease has zero mass, or whose source labels carry no
    mass at its truth value (a possible-rule region that is all
    inconclusive, say), has no denominator to measure against; it is
    emitted with ``metrics`` left as None and sorts after its measured
    siblings.  An unknown or repeated kind raises OutOfRange, since a
    repeated kind would emit every one of its rules twice.
    """
    kinds = _labels(kinds, "rule kinds must be a collection of kind names", list)
    for i, kind in enumerate(kinds):
        if not isinstance(kind, str) or kind not in _REGIONS:
            raise errors.OutOfRange("unknown rule kind %r" % (kind,))
        if kind in kinds[:i]:
            raise errors.OutOfRange("rule kind %r given twice" % (kind,))
    _check_order(kb.n)
    # the stored regions in the order the rules first need them
    needed = dict.fromkeys(p for kind in kinds for _, parts, _ in _REGIONS[kind] for p in parts)
    rules = []
    masses = metrics._masses(kb)
    for disease, sets in _regions(approx):
        mass = masses.get(disease, metrics._NO_MASS)[0]
        stored = {}
        for part in needed:
            region = _minterms(getattr(sets, part), kb.n)
            stored[part] = region, metrics._vd_sums(kb, region, disease, masses)
        for kind in kinds:
            for name, parts, vd in _REGIONS[kind]:
                labels = getattr(sets, name)
                if not labels:
                    continue
                # the parts are disjoint, so their sum is their union
                regions, vd_sums = zip(*[stored[part] for part in parts])
                condition = _cover(sum(regions), kb.n)
                sums = [fsum(by_part) for by_part in zip(*vd_sums)]
                rules.append(MinimizedRule(condition, disease, vd, kind, labels,
                                           metrics.measure(vd, sums, mass)))
    rules.sort(key=lambda r: (
        r.disease,
        -(r.metrics.strength if r.metrics is not None else ZERO),
        int(r.vd)))
    return rules
