"""Independent reference implementations used as test oracles.

These are deliberately naive, straight-line transcriptions written before
the library.  They share no code with the package under test; where both
sides must agree on a published rounding rule the formula is restated
here from scratch.  Keep them dumb — their value is that they are easy
to audit by eye.
"""

import math
from fractions import Fraction
from itertools import combinations, product

HALF = Fraction(1, 2)


def round2(x):
    """Quantize a nonnegative rational to 2 decimals, halves away from zero.

    This is also the Fraction form of the library's ``publish2``; on a
    negative value both round halves up.
    """
    return Fraction(math.floor(x * 100 + HALF), 100)


def reference_render(x, places):
    """Decimal text at a fixed number of places, halves to even: the
    Fraction form of the library's ``render``."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10 ** places
    whole = math.floor(scaled)
    rest = scaled - whole
    if rest > HALF or (rest == HALF and whole % 2 == 1):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return "%s%s.%s" % (sign, digits[:-places], digits[-places:])


# ---------------------------------------------------------------------------
# truth triples

def reference_triple(counts, q):
    """counts: {1: {level: n}, 2: {...}, 3: {...}} -> (tv1, tv2, tv3)."""
    masses = []
    for m in (1, 2, 3):
        total = 0
        for level, n in counts.get(m, {}).items():
            total += (q - level + 1) * n
        masses.append(total)
    w = sum(masses)
    if w == 0:
        raise ValueError("no evidence")
    return tuple(Fraction(mass, w) for mass in masses)


# ---------------------------------------------------------------------------
# decision resolution
#
# rows: three sequences of booleans (row 1 = certain presence, row 2 =
# certain absence, row 3 = inconclusive), triple = (t1, t2, t3).
# Returns (vd, cf).

def _single_row(x, t1, t2, t3):
    if x == 0:
        return 1, t1
    if x == 1:
        return 0, t2
    return 2, t3


def reference_resolve(rows, triple):
    t1, t2, t3 = triple
    q = len(rows[0])
    present = [any(r) for r in rows]
    if not any(present):
        raise ValueError("empty matrix")
    if sum(present) == 1:
        return _single_row(present.index(True), t1, t2, t3)

    y = min(c for c in range(q) if any(rows[x][c] for x in range(3)))
    live = [x for x in range(3) if rows[x][y]]

    if len(live) == 1:
        return _single_row(live[0], t1, t2, t3)

    if live == [0, 1]:
        if t1 > t2:
            return 1, t1
        if t1 < t2:
            return 0, t2
        for c in range(y + 1, q):
            if rows[0][c] != rows[1][c]:
                return (1, t1) if rows[0][c] else (0, t2)
        return 2, t1

    if live == [0, 2]:
        if t1 > t3:
            return 1, t1
        if t1 < t3:
            return 2, t3
        for c in range(y + 1, q):
            if rows[0][c] != rows[2][c]:
                return (1, t1) if rows[0][c] else (2, t3)
        return 2, t3

    if live == [1, 2]:
        if t2 > t3:
            return 0, t2
        if t2 < t3:
            return 2, t3
        for c in range(y + 1, q):
            if rows[1][c] != rows[2][c]:
                return (0, t2) if rows[1][c] else (2, t3)
        return 2, t3

    # all three rows share the first occupied column; any equality is
    # handled before the plain maximum rule
    if not (t1 == t2 == t3):
        if t1 == t2:
            return (2, t3) if t3 > t1 else (2, t1)
        if t1 == t3:
            return (2, t2) if t2 > t1 else (2, t3)
        if t2 == t3:
            return (2, t1) if t1 > t2 else (2, t3)
        if t1 > t2 and t1 > t3:
            return 1, t1
        if t2 > t1 and t2 > t3:
            return 0, t2
        return 2, t3
    # full three-way tie: walk the later columns
    for c in range(y + 1, q):
        hits = [x for x in range(3) if rows[x][c]]
        if not hits:
            continue
        if len(hits) == 1:
            return _single_row(hits[0], t1, t2, t3)
        if rows[0][c] and rows[1][c]:
            for c2 in range(c + 1, q):
                if rows[0][c2] or rows[1][c2]:
                    return (1, t1) if rows[0][c2] else (0, t2)
            return 2, t1
        if rows[0][c] and rows[2][c]:
            for c2 in range(c + 1, q):
                if rows[0][c2] or rows[2][c2]:
                    return (1, t1) if rows[0][c2] else (2, t3)
            return 2, t3
        for c2 in range(c + 1, q):
            if rows[1][c2] or rows[2][c2]:
                return (0, t2) if rows[1][c2] else (2, t3)
        return 2, t3
    return 2, t3


# ---------------------------------------------------------------------------
# composite propagation over the powerset of n facts
#
# atomics: {fact_id: {disease: (vd, cf)}} with cf already published at the
# target precision.  weights_for(facts, disease) -> {fact_id: Fraction}.
# Returns {frozenset(facts): {disease: (vd, cf)}} for every nonempty subset.

def _fold_vd(entries):
    """entries: [(vd, cf), ...] in a fixed order -> prevailing vd."""
    vd, cf = entries[0]
    for nxt_vd, nxt_cf in entries[1:]:
        if vd == nxt_vd:
            cf = max(cf, nxt_cf)
        elif {vd, nxt_vd} == {0, 2}:
            vd = 2
            cf = max(cf, nxt_cf)
        elif nxt_cf > cf:
            vd, cf = nxt_vd, nxt_cf
        elif nxt_cf == cf:
            vd = 2
    return vd


def _group_cf(values):
    """values: [(vd, cf), ...] -> combined credibility of the group."""
    sums = {}
    for vd, cf in values:
        sums[vd] = sums.get(vd, 0) + cf
    if len(sums) == 1:
        return next(iter(sums.values()))
    dominant = max(sums.values())
    rest = sum(sums.values()) - dominant
    return abs(dominant - rest)


def reference_cf_multi(node, carriers, weights, alpha, publish):
    """Credibility of a node at level >= 3 by the per-fact scan: each
    fact rescans every carrier.  carriers: [(facts, (vd, cf)), ...].
    None when no term clears the gate."""
    terms = []
    for fid in sorted(node):
        members = [pair for p, pair in carriers if fid in p]
        if not members:
            continue
        term = _group_cf(members) * weights[fid]
        if term > alpha:
            terms.append(publish(term))
    if not terms:
        return None
    return publish(min(Fraction(1), sum(terms) / (len(node) - 1)))


def reference_mean_triple(triples, publish):
    """Component-wise mean of truth triples, each mean published."""
    return tuple(publish(sum(t[c] for t in triples) / len(triples))
                 for c in range(3))


def reference_propagate(n, atomics, weights_for, alpha, publish):
    alpha = Fraction(alpha)
    out = {}
    for fid, per_disease in atomics.items():
        out[frozenset({fid})] = dict(per_disease)
    for size in range(2, n + 1):
        for facts in combinations(range(1, n + 1), size):
            node = frozenset(facts)
            preds = [node - {f} for f in sorted(node, reverse=True)]
            preds = sorted(preds, key=lambda s: sum(1 << (f - 1) for f in s))
            diseases = set()
            for p in preds:
                diseases.update(out.get(p, {}))
            decisions = {}
            for disease in sorted(diseases):
                weights = weights_for(node, disease)
                carriers = [(p, out[p][disease]) for p in preds
                            if disease in out.get(p, {})]
                if size == 2:
                    if len(carriers) == 1:
                        (_, (vd, cf)) = carriers[0]
                        only_fact = next(iter(carriers[0][0]))
                        prod = cf * weights[only_fact]
                        if prod > alpha:
                            decisions[disease] = (vd, publish(prod))
                        continue
                    (pi, (vd_i, cf_i)), (pj, (vd_j, cf_j)) = carriers
                    a = cf_i * weights[next(iter(pi))]
                    b = cf_j * weights[next(iter(pj))]
                    ga, gb = a > alpha, b > alpha
                    if not ga and not gb:
                        continue
                    if vd_i == vd_j:
                        vd = vd_i
                        cf = (a + b) if (ga and gb) else (a if ga else b)
                    else:
                        if {vd_i, vd_j} == {0, 2}:
                            vd = 2
                        elif cf_i > cf_j:
                            vd = vd_i
                        elif cf_j > cf_i:
                            vd = vd_j
                        else:
                            vd = 2
                        cf = abs(a - b) if (ga and gb) else (a if ga else b)
                    decisions[disease] = (vd, publish(min(Fraction(1), cf)))
                else:
                    vd = _fold_vd([pair for _, pair in carriers])
                    cf = reference_cf_multi(node, carriers, weights, alpha,
                                            publish)
                    if cf is not None:
                        decisions[disease] = (vd, cf)
            out[node] = decisions
    return out


# ---------------------------------------------------------------------------
# rough approximations from a {label: vd} map

def reference_approx(vd_map):
    lower1 = frozenset(k for k, v in vd_map.items() if v == 1)
    lower2 = frozenset(k for k, v in vd_map.items() if v == 0)
    boundary = frozenset(k for k, v in vd_map.items() if v == 2)
    return {
        "lower1": lower1,
        "upper1": lower1 | boundary,
        "boundary1": boundary,
        "lower2": lower2,
        "upper2": lower2 | boundary,
        "boundary2": boundary,
    }


# ---------------------------------------------------------------------------
# exhaustive two-level minimization (small n only)

def _cube_cells(cube):
    """All minterm labels covered by a cube string over {0,1,-}."""
    positions = [("01" if ch == "-" else ch) for ch in cube]
    return {"".join(bits) for bits in product(*positions)}


def exhaustive_primes(minterms, n):
    primes = []
    implicants = []
    for cube in product("01-", repeat=n):
        cube = "".join(cube)
        if _cube_cells(cube) <= minterms:
            implicants.append(cube)
    for cube in implicants:
        bigger = False
        for other in implicants:
            if other != cube and _cube_cells(cube) < _cube_cells(other):
                bigger = True
                break
        if not bigger:
            primes.append(cube)
    return primes


def best_cover(minterms, n):
    """Optimal (term_count, literal_count) over prime-implicant covers."""
    primes = exhaustive_primes(minterms, n)
    for k in range(1, len(primes) + 1):
        best = None
        for combo in combinations(primes, k):
            covered = set()
            for cube in combo:
                covered |= _cube_cells(cube)
            if covered == minterms:
                lits = sum(n - cube.count("-") for cube in combo)
                if best is None or lits < best:
                    best = lits
        if best is not None:
            return k, best
    raise AssertionError("uncoverable minterm set")


def _cube_key(cube):
    """A cube string's literals as sorted (fact id, positive) pairs; the
    last character is fact 1."""
    n = len(cube)
    return tuple(sorted((n - i, ch == "1") for i, ch in enumerate(cube) if ch != "-"))


def reference_cover(minterms, n):
    """The least prime cover, as a set of cube strings, ranked by
    (term count, literal count, sorted term keys), where a term key is
    its sorted (fact id, positive) literals.  Enumerates prime subsets
    by size."""
    primes = exhaustive_primes(minterms, n)
    for k in range(1, len(primes) + 1):
        best = None
        for combo in combinations(primes, k):
            covered = set()
            for cube in combo:
                covered |= _cube_cells(cube)
            if covered == minterms:
                rank = (sum(n - cube.count("-") for cube in combo),
                        sorted(_cube_key(cube) for cube in combo))
                if best is None or rank < best[0]:
                    best = (rank, set(combo))
        if best is not None:
            return best[1]
    raise AssertionError("uncoverable minterm set")


# ---------------------------------------------------------------------------
# rule quality measures from first principles
#
# view: {label: {disease: (vd, cf)}}

def reference_measures(view, source_labels, disease, vd):
    support = sum(view[lab][disease][1] for lab in source_labels)
    p_d = sum(per[disease][1] for per in view.values() if disease in per)
    y_c = sum(view[lab][disease][1] for lab in source_labels
              if view[lab][disease][0] == vd)
    mass_vd = sum(per[disease][1] for per in view.values()
                  if disease in per and per[disease][0] == vd)
    factor = HALF if vd == 2 else Fraction(1)
    one = Fraction(1)
    return {
        "support": support,
        "strength": support / p_d,
        "certainty": min(one, factor * support / y_c),
        "coverage": min(one, factor * support / mass_vd),
    }


def level_sweep_primes(minterms, n):
    """Prime implicants as sorted (bits, dash_mask) cubes, by a bitset
    Quine-McCluskey merge one popcount level of dash masks at a time.

    ``level[mask]`` has bit b set when the cube (b, mask) is an
    implicant.  With ``low`` the lowest dash of a mask, the cube is an
    implicant when both halves at ``mask ^ low`` are; it is prime when no
    table one dash wider covers it.  Kept as the reference the library's
    cube-table generator is checked against at orders too wide for
    ``exhaustive_primes``.
    """
    size = 1 << n
    clear = []
    for p in range(n):
        table = (1 << (1 << p)) - 1
        period = 2 << p
        while period < size:
            table |= table << period
            period *= 2
        clear.append(table)
    table = 0
    for m in set(minterms):
        table |= 1 << m
    level = {0: table} if table else {}
    primes = []
    k = 0
    while level:
        k += 1
        wider = {}
        for combo in combinations(range(n), k):
            mask = sum(1 << p for p in combo)
            low = mask & -mask
            below = level.get(mask ^ low)
            if below:
                found = below & (below >> low) & clear[low.bit_length() - 1]
                if found:
                    wider[mask] = found
        for mask, found in level.items():
            covered = 0
            for p in range(n):
                step = 1 << p
                if not mask & step:
                    up = wider.get(mask | step)
                    if up:
                        covered |= up | up << step
            rest = found & ~covered
            while rest:
                low = rest & -rest
                primes.append((low.bit_length() - 1, mask))
                rest ^= low
        level = wider
    primes.sort()
    return primes
