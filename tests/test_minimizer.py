"""Two-level boolean minimization against exhaustive small-case search."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected_lbp as X
import oracles
from conftest import random_kb, seeded
from roughkb import errors, kbio, minimizer, roughset
from roughkb.lattice import DEFAULT_ORDER_CAP, _minterms
from roughkb.minimizer import (EXACT_COVER_LIMIT, SopExpression,
                               _greedy_cover, _prime_implicants, _spread,
                               generate_rules, minimize)

# sha256 over str(minimize(...)) of the _pinned_regions() below, one line
# each.  It was recorded with an earlier minimizer that listed every
# irredundant cover (Quine-McCluskey primes, Petrick's product expansion)
# and ranked them by (terms, literals, sorted term keys), so it pins that
# ranking, tie-break included.
PINNED_COVERS_SHA = \
    "2378575a83ac624d8755baa1c7f3b3ecb6bfb97afa3a497687070b2500859411"

# sha256 over str() of the greedy covers of _greedy_regions(), one line
# each, recorded with the earlier greedy cover that tested every prime
# against every uncovered minterm.
GREEDY_COVERS_SHA = \
    "c7c784d25522c7cb1a2be84352b4368f6d84e11a14a2c22f8a2a2a38ebc27b79"


def _all_labels(n):
    return [format(i, "0%db" % n) for i in range(2 ** n)]


# --- expression behaviour ---------------------------------------------------

def test_expression_evaluates_literals():
    e = SopExpression(3, [frozenset({(1, True), (2, False)})])
    assert e.evaluate("001")
    assert e.evaluate("101")
    assert not e.evaluate("011")
    assert not e.evaluate("010")
    assert e.truth_set() == {"001", "101"}


# a label that is not text: an int, None, and a list of the right length
# (which got past the length check to a bare TypeError)
@pytest.mark.parametrize("label", ["0a1", "0b1", " 01", "0_1", 5, None, ["0", "0", "1"]])
def test_expression_rejects_bad_labels(label):
    e = SopExpression(3, [frozenset({(1, True)})])
    with pytest.raises(errors.OutOfRange):
        e.evaluate(label)


def test_expression_string_forms():
    single = SopExpression(4, [frozenset({(4, True), (2, False)})])
    assert str(single) == "NOT f2 AND f4"
    double = SopExpression(3, [frozenset({(3, True), (1, False)}),
                               frozenset({(3, True), (2, False)})])
    assert str(double) == "(NOT f1 AND f3) OR (NOT f2 AND f3)"
    assert double.factored() == "f3 AND (NOT f1 OR NOT f2)"
    assert str(SopExpression(2, [frozenset()])) == "TRUE"
    assert str(SopExpression(2, [])) == "FALSE"


def test_expression_refuses_literals_outside_its_facts():
    for fid in (0, -1, 4, 5, "1", 2.0, None):
        with pytest.raises(errors.OutOfRange):
            SopExpression(3, [frozenset({(fid, True)})])
        with pytest.raises(errors.OutOfRange):
            SopExpression(3, [frozenset(), frozenset({(1, False), (fid, False)})])
    # an int is named before a value of another type
    with pytest.raises(errors.OutOfRange, match="^literal on fact 9 outside 1..3$"):
        SopExpression(3, [{("1", False)}, {(9, True)}])
    # a term that never holds is still a term
    never = SopExpression(3, [frozenset({(1, True), (1, False)})])
    assert never.truth_set() == frozenset()
    assert str(never) == "NOT f1 AND f1"


@pytest.mark.parametrize("polarity", [2, 1, 0, "no", None, 1.0])
def test_expression_refuses_a_polarity_that_is_not_a_bool(polarity):
    # 2 read as true and rendered "f1 AND f1"; "no" rendered "f1"
    with pytest.raises(errors.OutOfRange, match="polarity"):
        SopExpression(2, [{(1, True), (2, polarity)}])
    with pytest.raises(errors.OutOfRange, match="polarity"):
        SopExpression(2, [frozenset(), {(2, polarity)}])
    assert str(SopExpression(2, [{(1, True), (2, False)}])) == "f1 AND NOT f2"


@pytest.mark.parametrize("n,error,message", [
    (0, errors.OutOfRange, "order must be at least 1, got 0"),
    (-1, errors.OutOfRange, "order must be at least 1, got -1"),
    ("a", errors.OutOfRange, "order must be an int, got 'a'"),
    (2.0, errors.OutOfRange, "order must be an int, got 2.0"),
    # refused before truth_set could build a 2**40-bit table
    (40, errors.OrderTooLarge, "order 40 exceeds the cap of %d" % DEFAULT_ORDER_CAP),
])
def test_expression_refuses_an_order_outside_one_to_the_cap(n, error, message):
    with pytest.raises(error) as caught:
        SopExpression(n, [frozenset()])
    assert type(caught.value) is error
    assert str(caught.value) == message
    with pytest.raises(error):
        SopExpression(n, [])


@pytest.mark.parametrize("terms", [5, [5], [[5]], [[(1,)]], [[(1, True, 2)]], ["ab"],
                                   [[[1, True]]]])
def test_expression_refuses_terms_that_are_not_literal_collections(terms):
    with pytest.raises(errors.OutOfRange, match="^a term must be a collection of"):
        SopExpression(3, terms)


def test_expression_equality_ignores_term_order():
    a = frozenset({(1, True)})
    b = frozenset({(2, False)})
    assert SopExpression(2, [a, b]) == SopExpression(2, [b, a])
    assert hash(SopExpression(2, [a, b])) == hash(SopExpression(2, [b, a]))
    assert SopExpression(2, [a]) != SopExpression(3, [a])


# --- worked covers ----------------------------------------------------------

@pytest.mark.parametrize("minterms,n,expected", X.MINIMIZE_CASES)
def test_worked_examples(minterms, n, expected):
    got = minimize(minterms, n)
    assert set(got.ordered_terms()) == expected
    assert got.truth_set() == minterms


def test_minimize_validates_input():
    with pytest.raises(errors.EmptyMintermSet):
        minimize(set(), 3)
    with pytest.raises(errors.OutOfRange):
        minimize({"01"}, 3)  # wrong width
    with pytest.raises(errors.OutOfRange):
        minimize({"0x1"}, 3)


@pytest.mark.parametrize("labels", [[b"01"], ["01", b"01"], [1, "01"], [None],
                                    ["01", ["0", "1"]]])
def test_minimize_refuses_labels_that_are_not_text(labels):
    with pytest.raises(errors.OutOfRange, match="bad minterm label"):
        minimize(labels, 2)


@pytest.mark.parametrize("minterms", ["01", "", 5, None])
def test_minimize_refuses_minterms_that_are_not_a_label_collection(minterms):
    # a str would read as one-character labels
    with pytest.raises(errors.OutOfRange, match="^minterms must be a collection of labels$"):
        minimize(minterms, 2)
    # a collection holding an unhashable label names it
    with pytest.raises(errors.OutOfRange, match=r"^bad minterm label \['0', '1'\] for order 2$"):
        minimize(["01", ["0", "1"]], 2)


def test_minimize_names_the_least_bad_label():
    labels = ["011", "1x1", "0a", "101", "00", "1111", "x"]
    for seed in range(20):
        random.Random(seed).shuffle(labels)
        for given_as in (labels, frozenset(labels), iter(labels)):
            with pytest.raises(errors.OutOfRange) as info:
                minimize(given_as, 3)
            assert str(info.value) == "bad minterm label '00' for order 3"
    # text labels come first; other values after them, by repr
    with pytest.raises(errors.OutOfRange, match="label '0a' for"):
        minimize([b"00", "0a", 7], 3)
    with pytest.raises(errors.OutOfRange, match="label 7 for"):
        minimize([b"00", "011", 7], 3)


def test_minimize_refuses_orders_outside_one_to_the_cap():
    with pytest.raises(errors.OutOfRange):
        minimize([""], 0)
    # a 3**n-bit cube table past the cap would be gigabytes
    with pytest.raises(errors.OrderTooLarge):
        minimize(["1" * 40], 40)
    with pytest.raises(errors.OutOfRange, match="^order must be an int, got '2'$"):
        minimize(["01"], "2")


def test_minimize_takes_repeated_labels_once():
    assert minimize(["011", "111", "011"], 3) == minimize({"011", "111"}, 3)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, 2 ** n - 1), min_size=1))))
def test_an_expression_rebuilt_from_its_terms_is_the_same(case):
    n, cells = case
    got = minimize([format(c, "0%db" % n) for c in cells], n)
    again = SopExpression(n, got.terms)
    assert str(again) == str(got)
    assert again.ordered_terms() == got.ordered_terms()
    assert again.factored() == got.factored()
    assert again.truth_set() == got.truth_set()
    assert again == got
    assert hash(again) == hash(got)


def test_minimize_is_deterministic():
    minterms = frozenset({"0001", "0011", "0111", "1111", "1000"})
    first = minimize(minterms, 4)
    for _ in range(5):
        again = minimize(minterms, 4)
        assert str(again) == str(first)
        assert again.ordered_terms() == first.ordered_terms()


# --- optimality against brute force -----------------------------------------

def _cube_string(term, n):
    cube = ["-"] * n
    for fid, positive in term:
        cube[n - fid] = "1" if positive else "0"
    return "".join(cube)


def _check_optimal(minterms, n):
    got = minimize(minterms, n)
    assert got.truth_set() == set(minterms), "cover is not semantically equal"
    assert got.minimal
    terms = got.ordered_terms()
    want_count, want_lits = oracles.best_cover(set(minterms), n)
    assert len(terms) == want_count
    assert sum(len(t) for t in terms) == want_lits
    assert ({_cube_string(t, n) for t in terms}
            == oracles.reference_cover(set(minterms), n))


def _check_prime_and_irredundant(expr, labels):
    labels = set(labels)
    terms = expr.ordered_terms()
    for term in terms:
        for literal in term:
            wider = SopExpression(expr.n, [term - {literal}])
            assert not wider.truth_set() <= labels, "a term is not prime"
    for drop in range(len(terms)):
        rest = SopExpression(expr.n, terms[:drop] + terms[drop + 1:])
        assert rest.truth_set() != labels, "a term is redundant"


def test_exhaustive_width_two_and_three():
    for n in (2, 3):
        labels = _all_labels(n)
        for size in range(1, len(labels) + 1):
            for chosen in combinations(labels, size):
                _check_optimal(frozenset(chosen), n)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=15), min_size=1))
def test_random_width_four(cells):
    minterms = frozenset(format(c, "04b") for c in cells)
    _check_optimal(minterms, 4)


def test_seeded_widths_four_and_five():
    rng = random.Random(4505)
    for n in (4, 5):
        for _ in range(20):
            density = rng.choice((0.25, 0.5, 0.75))
            cells = [c for c in range(2 ** n) if rng.random() < density] or [0]
            _check_optimal(frozenset(format(c, "0%db" % n) for c in cells), n)


def test_full_and_single_cases():
    for n in (1, 2, 3, 4):
        full = minimize(_all_labels(n), n)
        assert full.ordered_terms() == [frozenset()]
        assert str(full) == "TRUE"
        lone = minimize({"1" * n}, n)
        assert lone.ordered_terms() == [
            frozenset((f, True) for f in range(1, n + 1))]


def test_cover_is_irredundant():
    cases = [
        frozenset({"0001", "0011", "0111", "1111"}),
        frozenset({"0000", "0001", "0010", "0100", "1000"}),
        frozenset({"1010", "1011", "1110", "0110"}),
    ]
    for minterms in cases:
        _check_prime_and_irredundant(minimize(minterms, 4), minterms)


def test_wide_instances_fall_back_to_greedy():
    # past the exact-search width the greedy cover takes over; a sparse
    # instance keeps the prime-implicant stage affordable
    n = EXACT_COVER_LIMIT + 1
    prefix = "1010101"
    labels = [prefix + format(i, "06b") for i in range(64) if i % 3 != 0]
    got = minimize(labels, n)
    assert got.truth_set() == set(labels)
    assert not got.minimal
    # greedy covers stay irredundant even without the exact search
    _check_prime_and_irredundant(got, labels)


# --- the node budget --------------------------------------------------------

def _ragged_regions():
    """Forty half-density order-7 regions.  Expanding Petrick's product
    finished only nine of them within 3 s."""
    rng = random.Random(5)
    for _ in range(40):
        yield [format(c, "07b") for c in range(128) if rng.random() < 0.5]


def test_ragged_regions_need_few_nodes(monkeypatch):
    # a node count, not a timing: each region's search fits in 2,000 nodes
    monkeypatch.setattr(minimizer, "COVER_NODE_BUDGET", 2_000)
    for labels in _ragged_regions():
        got = minimize(labels, 7)
        assert got.minimal
        assert got.truth_set() == set(labels)
        _check_prime_and_irredundant(got, labels)


def _probe_regions():
    """The five regions of a fully decided order-7 file whose decisions
    were set node by node: ``ragged_kb(random.Random(20181003), 7)`` of
    the benchmark's generator, written out here."""
    rng = random.Random(20181003)
    lines = ["roughkb-kb 1", "mode round2", "alpha 0", "order 7"]
    lines += ['fact f%d "attr%d" "value%d"' % (f, f, f) for f in range(1, 8)]
    for level in range(8):
        for mask in sorted(sum(1 << p for p in c) for c in combinations(range(7), level)):
            lines.append("node %s" % format(mask, "07b"))
            if level:
                rng.random()  # the generator's density draw: at 1.0 every node decides
                lines.append("decision ANK vd=%d cf=%d.%02d tv=- w=-" % (
                    (rng.randrange(3),) + divmod(rng.randint(1, 100), 100)))
    sets = roughset.approximations(kbio.load_kb("\n".join(lines) + "\n"), "ANK")
    for region in ("lower1", "lower2", "boundary1", "upper1", "upper2"):
        yield sorted(getattr(sets, region))


# (pass 1, pass 2) search nodes of each region of _ragged_regions() and
# then of _probe_regions(), recorded when pass 2 still reduced its root
# again: sharing the root's reduction must leave every search as it was.
PINNED_NODES = [
    (45, 10), (83, 13), (17, 5), (218, 42), (705, 358), (33, 22), (17, 9),
    (25, 28), (147, 89), (3, 3), (101, 23), (37, 34), (27, 10), (11, 7),
    (67, 28), (37, 8), (21, 41), (5, 4), (49, 95), (20, 10), (197, 76),
    (31, 7), (29, 18), (11, 6), (13, 10), (15, 7), (85, 43), (39, 13),
    (321, 77), (39, 8), (11, 7), (15, 12), (39, 27), (163, 36), (21, 8),
    (47, 53), (203, 33), (7, 3), (3, 3), (107, 18),
    (5, 3), (1, 1), (3, 2), (316, 304), (117, 37)]


def test_both_passes_visit_the_pinned_node_counts(monkeypatch):
    nodes = []
    least_cost, first_cover = minimizer._least_cost, minimizer._first_cover

    def counted(search, *args):
        found, used = search(*args)
        nodes.append(used)
        return found, used
    monkeypatch.setattr(minimizer, "_least_cost", lambda *a: counted(least_cost, *a))
    monkeypatch.setattr(minimizer, "_first_cover", lambda *a: counted(first_cover, *a))
    for labels in list(_ragged_regions()) + list(_probe_regions()):
        assert minimize(labels, 7).minimal
    assert list(zip(nodes[::2], nodes[1::2])) == PINNED_NODES


def test_spent_budget_falls_back_to_greedy(monkeypatch):
    labels = next(_ragged_regions())
    values = [int(label, 2) for label in labels]
    exact = minimize(labels, 7)
    greedy = SopExpression._from_cubes(
        7, _greedy_cover(_prime_implicants(_region(values), 7), _region(values), 7), False)
    assert exact.terms != greedy.terms
    # every budget below the nodes the search needs gives the greedy cover
    for budget in range(1000):
        monkeypatch.setattr(minimizer, "COVER_NODE_BUDGET", budget)
        got = minimize(labels, 7)
        if got.minimal:
            break
        assert got.terms == greedy.terms
        assert got.truth_set() == set(labels)
        _check_prime_and_irredundant(got, labels)
    assert 1 < budget < 1000
    assert got.terms == exact.terms
    monkeypatch.setattr(minimizer, "COVER_NODE_BUDGET", budget + 1)
    assert minimize(labels, 7).minimal


def test_rules_record_which_cover_they_got(monkeypatch):
    kb, _, _ = random_kb(seeded(0), 6, with_priorities=False)
    approx = {d: roughset.approximations(kb, d) for d in kb.diseases()}
    kinds = ("certain", "uncertain", "possible")
    exact = generate_rules(kb, approx, kinds)
    assert all(rule.minimal for rule in exact)
    monkeypatch.setattr(minimizer, "COVER_NODE_BUDGET", 0)
    spent = generate_rules(kb, approx, kinds)
    assert any(not rule.minimal for rule in spent)
    for rule in spent:
        assert rule.minimal == rule.condition.minimal
        assert rule.condition.truth_set() == rule.source_labels


# --- prime implicants and pinned covers -------------------------------------

def _region(cells):
    """A collection of minterms as the int over masks the minimizer takes."""
    region = 0
    for cell in cells:
        region |= 1 << cell
    return region


def _oracle_primes(cells, n):
    labels = {format(c, "0%db" % n) for c in cells}
    cubes = oracles.exhaustive_primes(labels, n)
    return sorted((int(c.replace("-", "0"), 2),
                   int("".join("1" if ch == "-" else "0" for ch in c), 2))
                  for c in cubes)


def test_primes_match_exhaustive_search_at_order_three():
    for region in range(2 ** 8):
        cells = [c for c in range(8) if region >> c & 1]
        assert _prime_implicants(_region(cells), 3) == _oracle_primes(cells, 3)


def test_primes_match_exhaustive_search_at_orders_four_and_five():
    rng = random.Random(4005)
    for n in (4, 5):
        for _ in range(25):
            density = rng.random()
            cells = [c for c in range(2 ** n) if rng.random() < density] or [0]
            assert _prime_implicants(_region(cells), n) == _oracle_primes(cells, n)


def _kernel_regions():
    """Seeded regions at orders 1-12: empty, one minterm, full, parity and
    densities from 0.05 to 0.95."""
    rng = random.Random(3111)
    for n in range(1, 13):
        size = 2 ** n
        yield n, []
        yield n, [rng.randrange(size)]
        yield n, list(range(size))
        yield n, [c for c in range(size) if bin(c).count("1") % 2]
        for density in (0.05, 0.25, 0.5, 0.75, 0.95):
            yield n, [c for c in range(size) if rng.random() < density]


def test_primes_match_the_level_sweep_at_orders_one_to_twelve():
    for n, cells in _kernel_regions():
        assert _prime_implicants(_region(cells), n) == oracles.level_sweep_primes(cells, n), n


@pytest.mark.parametrize("block_digits", [1, 2, 3])
def test_primes_match_the_level_sweep_across_many_blocks(monkeypatch, block_digits):
    # small blocks put most digits in the keys: the key-level merge and
    # cover run at orders the oracle checks quickly
    monkeypatch.setattr(minimizer, "_BLOCK_DIGITS", block_digits)
    for n, cells in _kernel_regions():
        if n <= 8:
            assert (_prime_implicants(_region(cells), n)
                    == oracles.level_sweep_primes(cells, n)), n


@pytest.mark.parametrize("n", [8, 10, 12])
def test_primes_match_the_level_sweep_on_knowledge_base_regions(n):
    kb, _, _ = random_kb(seeded(n), n, round2=True)
    for disease in sorted(kb.diseases()):
        sets = roughset.approximations(kb, disease)
        for region in ("lower1", "lower2", "boundary1", "upper1", "upper2"):
            cells = sorted(int(label, 2) for label in getattr(sets, region))
            assert (_prime_implicants(_region(cells), n)
                    == oracles.level_sweep_primes(cells, n)), (disease, region)


def test_the_spread_moves_each_minterm_to_its_cube_index():
    rng = random.Random(1010)
    for w in range(1, minimizer._BLOCK_DIGITS + 1):
        sample = range(2 ** w) if w <= 6 else rng.sample(range(2 ** w), 64)
        for m in sample:
            assert _spread(1 << m, w) == 1 << int(format(m, "b"), 3), (w, m)
        # a whole table at once: the cube indices of digits 0 and 1 only
        assert _spread((1 << 2 ** w) - 1, w) == sum(
            1 << int(format(m, "b"), 3) for m in range(2 ** w))


def _merged_primes(cells, n):
    """The prime implicants of a sparse region by brute force over sets of
    cubes: a cube with one dash more is an implicant when its two halves
    are, and an implicant is prime when no such wider cube is one."""
    implicants = frontier = {(m, 0) for m in cells}
    while frontier:
        wider = {(bits & ~(1 << p), mask | 1 << p)
                 for bits, mask in frontier for p in range(n)
                 if not mask >> p & 1 and (bits ^ 1 << p, mask) in implicants}
        implicants = implicants | wider
        frontier = wider
    return sorted((bits, mask) for bits, mask in implicants
                  if not any((bits & ~(1 << p), mask | 1 << p) in implicants
                             for p in range(n) if not mask >> p & 1))


@pytest.mark.parametrize("n", range(8, 13))
def test_primes_of_sparse_regions_match_a_brute_force_merge(n):
    # above _BLOCK_DIGITS the top digits key the blocks
    rng = random.Random(8000 + n)
    for density in (0.01, 0.04, 0.1):
        cells = [c for c in range(2 ** n) if rng.random() < density] or [rng.randrange(2 ** n)]
        primes = _prime_implicants(_region(cells), n)
        assert primes == _merged_primes(cells, n), (n, density)
        if n == 8:
            assert primes == _oracle_primes(cells, n)
        # each prime covers minterms only, and no cube one dash wider does
        region = set(cells)
        for bits, mask in primes:
            assert all(bits | sub in region for sub in _submasks(mask))
            assert all(not all(bits & ~(1 << p) | sub in region
                               for sub in _submasks(mask | 1 << p))
                       for p in range(n) if not mask >> p & 1)


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, 2 ** n - 1)))))
def test_primes_match_exhaustive_search_up_to_order_six(case):
    n, cells = case
    assert _prime_implicants(_region(sorted(cells)), n) == _oracle_primes(cells, n)


def test_primes_ignore_repeated_and_unordered_minterms():
    # a region is read into one int, which has no order and no repeats
    labels = ["101", "001", "111", "101", "011", "001"]
    assert _minterms(labels, 3) == _minterms(sorted(set(labels)), 3) == _region([5, 1, 7, 3])


_PINNED_DENSITIES = {3: (0.1, 0.25, 0.5, 0.75, 0.9),
                     4: (0.1, 0.25, 0.5, 0.75, 0.9),
                     5: (0.1, 0.25, 0.5, 0.75, 0.9),
                     6: (0.1, 0.25, 0.4),
                     7: (0.05, 0.1, 0.2, 0.3)}


def _pinned_regions():
    """200 seeded regions at orders 3-7, 85 of which need a search
    beyond the essential primes.

    Denser regions at orders 6 and 7 are left out: the earlier minimizer
    that recorded the digest did not finish them.
    """
    rng = random.Random(1810)
    for i in range(200):
        n = 3 + i % 5
        density = rng.choice(_PINNED_DENSITIES[n])
        cells = [c for c in range(2 ** n) if rng.random() < density]
        if not cells:
            cells = [rng.randrange(2 ** n)]
        yield n, [format(c, "0%db" % n) for c in cells]


def _greedy_regions():
    rng = random.Random(1812)
    for i in range(120):
        n = 3 + i % 7
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        cells = [c for c in range(2 ** n) if rng.random() < density]
        if not cells:
            cells = [rng.randrange(2 ** n)]
        yield n, cells


def test_greedy_covers_are_pinned():
    digest = hashlib.sha256()
    for n, cells in _greedy_regions():
        cubes = _greedy_cover(_prime_implicants(_region(cells), n), _region(cells), n)
        digest.update(str(SopExpression._from_cubes(n, cubes, False)).encode("utf-8")
                      + b"\n")
    assert digest.hexdigest() == GREEDY_COVERS_SHA


def test_covers_are_pinned():
    digest = hashlib.sha256()
    for n, labels in _pinned_regions():
        digest.update(str(minimize(labels, n)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == PINNED_COVERS_SHA


def test_full_region_at_order_fourteen():
    n = 14
    assert _prime_implicants(_region(range(2 ** n)), n) == [(0, 2 ** n - 1)]
    assert str(minimize(_all_labels(n), n)) == "TRUE"


def test_parity_region_at_order_fourteen_has_only_minterm_primes():
    n = 14
    even = [v for v in range(2 ** n) if bin(v).count("1") % 2 == 0]
    assert _prime_implicants(_region(even), n) == [(v, 0) for v in even]
