"""Graded evidence sources and atomic decision resolution.

Knowledge sources are graded into ``q`` acceptability levels (level 1
the most authoritative).  For one symptom/disease assertion the sources
split three ways: kind 1 asserts presence, kind 2 asserts absence, kind
3 is inconclusive.  This module turns the per-kind, per-level source
counts into a normalized truth triple, builds the boolean presence
matrix over kinds and levels, and resolves the pair into a ternary
truth value with a credibility factor.

An ``EvidenceProfile`` holds the counts and their ``q``, checked
against ``GRADING_CAP``; its ``kind_mass`` weighs level ``j`` by
``q - j + 1``.  Profiles, presence matrices and triples are immutable
values that copy and pickle.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from . import errors
from ._num import frac
from ._record import Record, set_field

# The most acceptability levels a profile may hold.  A build costs O(q)
# per record group, so ``from_levels`` checks q before it builds a row;
# seeded documents and the bundled fixture use 3 to 5.
GRADING_CAP = 1000


class TruthValue(IntEnum):
    """Ternary outcome: 1 surely present, 0 surely absent, 2 open."""

    ABSENT = 0
    PRESENT = 1
    INCONCLUSIVE = 2


def _check_levels(q) -> None:
    if not isinstance(q, int) or not 1 <= q <= GRADING_CAP:
        raise errors.OutOfRange("a profile needs 1 to %d levels, got %r" % (GRADING_CAP, q))


class EvidenceProfile(Record):
    """Source counts indexed by assertion kind (1..3) and level (1..q),
    with 1 <= q <= ``GRADING_CAP``."""

    __slots__ = ("counts",)

    def __init__(self, counts: Iterable[Iterable[int]]):
        try:
            rows = tuple(tuple(row) for row in counts)
        except TypeError:
            raise errors.OutOfRange("profile counts must be 3 rows of integers") from None
        if len(rows) != 3:
            raise errors.OutOfRange("profile needs exactly 3 kind rows")
        if not rows[0] or len({len(r) for r in rows}) != 1:
            raise errors.OutOfRange("profile rows must share a positive length")
        _check_levels(len(rows[0]))
        for row in rows:
            for c in row:
                if not isinstance(c, int) or c < 0:
                    raise errors.OutOfRange("counts must be nonnegative integers")
        set_field(self, "counts", rows)

    @classmethod
    def from_levels(cls, by_kind: Mapping[int, Mapping[int, int]], q: int) -> "EvidenceProfile":
        """Build a profile from sparse ``{kind: {level: count}}`` data."""
        _check_levels(q)
        for kind in by_kind:
            if kind not in (1, 2, 3):
                raise errors.OutOfRange("kind %r outside 1..3" % (kind,))
        rows = []
        for kind in (1, 2, 3):
            try:
                sparse = dict(by_kind.get(kind, {}))
            except (TypeError, ValueError):
                raise errors.OutOfRange("kind %d counts must map levels to counts"
                                        % kind) from None
            for level in sparse:
                if not isinstance(level, int) or not 1 <= level <= q:
                    raise errors.OutOfRange("level %r outside 1..%d" % (level, q))
            rows.append(tuple(sparse.get(level, 0) for level in range(1, q + 1)))
        return cls(rows)

    @property
    def q(self) -> int:
        return len(self.counts[0])

    def kind_mass(self, kind: int) -> int:
        """Weighted source mass for one assertion kind: level ``j`` of
        ``q`` weighs ``q - j + 1``, so the best level weighs ``q`` and the
        worst 1."""
        q = self.q
        return sum((q - j) * c for j, c in enumerate(self.counts[kind - 1]))


class TruthTriple(Tuple[Fraction, Fraction, Fraction]):
    """Normalized weighted evidence mass for presence/absence/openness."""

    __slots__ = ()

    def __new__(cls, *components):
        if len(components) != 3:
            raise errors.OutOfRange("a truth triple has three components, got %d"
                                    % len(components))
        # a Fraction is immutable, so one given exactly is kept as it is
        return super().__new__(cls, tuple(v if type(v) is Fraction else frac(v)
                                          for v in components))

    @property
    def tv1(self) -> Fraction:
        return self[0]

    @property
    def tv2(self) -> Fraction:
        return self[1]

    @property
    def tv3(self) -> Fraction:
        return self[2]

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__ with the three components
        return tuple(self)

    def __repr__(self):
        return "TruthTriple(%s, %s, %s)" % self


class PresenceMatrix(Record):
    """3 x q boolean indicator of which (kind, level) cells hold sources."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[bool]]):
        try:
            rows = tuple(tuple(bool(v) for v in row) for row in rows)
        except TypeError:
            raise errors.OutOfRange("presence matrix must be 3 rows of cells") from None
        if len(rows) != 3 or len({len(r) for r in rows}) != 1:
            raise errors.OutOfRange("presence matrix must be 3 x q")
        set_field(self, "rows", rows)

    @property
    def q(self) -> int:
        return len(self.rows[0])


def truth_triple(profile: EvidenceProfile) -> TruthTriple:
    """Normalize the weighted per-kind masses into a triple summing to 1.

    Raises:
        ZeroEvidence: the profile holds no sources at all; the assertion
            should simply be absent, never defaulted.
    """
    masses = [profile.kind_mass(kind) for kind in (1, 2, 3)]
    total = sum(masses)
    if total == 0:
        raise errors.ZeroEvidence("profile carries no weighted evidence")
    return TruthTriple(*(Fraction(m, total) for m in masses))


def presence_matrix(profile: EvidenceProfile) -> PresenceMatrix:
    return PresenceMatrix(tuple(tuple(c > 0 for c in row) for row in profile.counts))


# --- decision resolution ----------------------------------------------------
#
# Row r of the presence matrix (0-based) wins with outcome _ROW_VD[r] and
# credibility equal to its own triple component.

_ROW_VD = (TruthValue.PRESENT, TruthValue.ABSENT, TruthValue.INCONCLUSIVE)

# Terminal defaults when a tie survives every scan: the row pair that
# tied determines which component backs the inconclusive outcome.
_PAIR_DEFAULT_COMPONENT = {(0, 1): 0, (0, 2): 2, (1, 2): 2}


def _won(row: int, t: TruthTriple):
    return _ROW_VD[row], t[row]


def _scan_pair(rows, pair, start, t):
    """Walk later columns for the first one hitting exactly one pair row."""
    a, b = pair
    q = len(rows[0])
    for col in range(start, q):
        if rows[a][col] != rows[b][col]:
            return _won(a if rows[a][col] else b, t)
    return TruthValue.INCONCLUSIVE, t[_PAIR_DEFAULT_COMPONENT[pair]]


def _resolve_pair(rows, pair, y, t):
    a, b = pair
    if t[a] > t[b]:
        return _won(a, t)
    if t[a] < t[b]:
        return _won(b, t)
    return _scan_pair(rows, pair, y + 1, t)


def _resolve_three(rows, y, t):
    q = len(rows[0])
    ties = [(a, b) for a, b in _PAIR_DEFAULT_COMPONENT if t[a] == t[b]]
    if not ties:
        return _won(max(range(3), key=t.__getitem__), t)
    if len(ties) == 1:
        # one tied pair: the outcome is inconclusive either way, backed
        # by the strict winner's component when the pair lost
        pair = ties[0]
        third = ({0, 1, 2} - set(pair)).pop()
        component = third if t[third] > t[pair[0]] else _PAIR_DEFAULT_COMPONENT[pair]
        return TruthValue.INCONCLUSIVE, t[component]
    # all three equal: search later columns for a discriminating cell
    for col in range(y + 1, q):
        hit = [r for r in range(3) if rows[r][col]]
        if not hit:
            continue
        if len(hit) == 1:
            return _won(hit[0], t)
        pair = (0, 1) if (0 in hit and 1 in hit) else (0, 2) if 0 in hit else (1, 2)
        a, b = pair
        for col2 in range(col + 1, q):
            if rows[a][col2] or rows[b][col2]:
                return _won(a if rows[a][col2] else b, t)
        return TruthValue.INCONCLUSIVE, t[_PAIR_DEFAULT_COMPONENT[pair]]
    return TruthValue.INCONCLUSIVE, t[2]


def resolve_decision(m: PresenceMatrix, t: TruthTriple):
    """Resolve a presence matrix and its triple to ``(vd, credibility)``.

    The winning assertion kind always donates its own triple component
    as the credibility factor; ties walk the remaining columns looking
    for a lower-priority discriminator and otherwise fall to an
    inconclusive default.

    Raises:
        EmptyMatrix: no cell of the matrix is true.
    """
    rows = m.rows
    occupied = [r for r in range(3) if any(rows[r])]
    if not occupied:
        raise errors.EmptyMatrix("no knowledge sources at all")
    if len(occupied) == 1:
        return _won(occupied[0], t)
    y = min(col for col in range(len(rows[0]))
            if any(rows[r][col] for r in range(3)))
    live = [r for r in range(3) if rows[r][y]]
    if len(live) == 1:
        return _won(live[0], t)
    if len(live) == 2:
        return _resolve_pair(rows, tuple(live), y, t)
    return _resolve_three(rows, y, t)
