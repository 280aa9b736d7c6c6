"""Independent ground truth for the test suite.

Character values here come from a completely different construction than the
package's border-strip recursion: permutation character values of Young
subgroups are counted by a cycle-distribution argument, then the irreducible
rows fall out of Gram-Schmidt in an order compatible with dominance. Nothing
below imports package internals, so agreement is meaningful evidence.

The border-strip oracles work on whole beta sets: each result rebuilds the
set, sorts it and reads every part back, sharing no bit arithmetic with the
package's bead moves on an int abacus.

The Weyl-numerator route counts Foulkes multiplicities with no
characters of the symmetric group at all: weight multiplicities of
Sym^b(Sym^a C^rows) by a knapsack, then Weyl's alternating sum over S_rows.

The rule oracle at the end is the one part that reaches into the
package, for its public HookCoordinates and Prediction types only: it is
the hook-coordinate form of the vanishing rules, a validated HookCoordinates
per shape and a Prediction per rule, so the package's integer pass can be
held to it field for field.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import add


def oracle_partitions(n):
    """Partitions of n, descending lexicographic."""
    if n == 0:
        return [()]
    out = []
    acc = []

    def rec(rem, biggest):
        if rem == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rem, biggest), 0, -1):
            acc.append(part)
            rec(rem - part, part)
            acc.pop()

    rec(n, n)
    return out


def oracle_centralizer(mu):
    z = 1
    for value, count in Counter(mu).items():
        z *= value ** count * factorial(count)
    return z


@lru_cache(maxsize=None)
def _distribute(cycles, caps):
    """Ways to deal the cycles onto capacity slots, filling each exactly.

    Slots are distinguishable; the memo key only needs the sorted capacities
    because equal capacities have identical futures.
    """
    if not cycles:
        return 1 if not caps else 0
    head, rest = cycles[0], cycles[1:]
    total = 0
    tried = set()
    for i, cap in enumerate(caps):
        if cap < head or cap in tried:
            continue
        tried.add(cap)
        remaining = list(caps)
        remaining.pop(i)
        if cap > head:
            remaining.append(cap - head)
        total += caps.count(cap) * _distribute(
            rest, tuple(sorted(remaining, reverse=True)))
    return total


def oracle_young_value(mu, cycles):
    """Permutation character of the Young subgroup of mu, on cycle type cycles.

    A coset is fixed exactly when every cycle lands inside one row, so the
    value counts ways to distribute the cycles over rows with exact fill.
    """
    return _distribute(tuple(sorted(cycles, reverse=True)),
                       tuple(sorted(mu, reverse=True)))


@lru_cache(maxsize=None)
def oracle_char_table(n):
    """Full irreducible character table of the symmetric group on n points.

    Young rows expand over irreducibles with unitriangular coefficients
    against dominance, and descending lex refines dominance, so peeling
    earlier rows off in that order leaves exactly one new irreducible each
    time. The unit norm assertion would catch any ordering mistake.
    """
    classes = oracle_partitions(n)
    weights = {mu: oracle_centralizer(mu) for mu in classes}

    def ip(u, v):
        return sum(Fraction(u[mu] * v[mu], weights[mu]) for mu in classes)

    table = {}
    for shape in classes:
        row = {mu: Fraction(oracle_young_value(shape, mu)) for mu in classes}
        for prior in table.values():
            coeff = ip(row, prior)
            if coeff:
                row = {mu: row[mu] - coeff * prior[mu] for mu in classes}
        assert ip(row, row) == 1, f"lost orthonormality at {shape}"
        table[shape] = row
    out = {}
    for shape, row in table.items():
        assert all(v.denominator == 1 for v in row.values()), shape
        out[shape] = {mu: int(v) for mu, v in row.items()}
    return out


def oracle_char(lam, mu):
    return oracle_char_table(sum(lam))[tuple(lam)][tuple(sorted(mu, reverse=True))]


def oracle_strip_removals(lam, length):
    """Border-strip removals on a beta-set: (smaller shape, height) pairs."""
    s = len(lam)
    if s == 0 or length > lam[0] + s - 1:
        return ()
    beta = [lam[i] + s - 1 - i for i in range(s)]
    present = set(beta)
    out = []
    for i, bv in enumerate(beta):
        nb = bv - length
        if nb < 0 or nb in present:
            continue
        height = sum(1 for j in range(i + 1, s) if beta[j] > nb)
        newbeta = sorted((present - {bv}) | {nb}, reverse=True)
        parts = (newbeta[idx] - (s - 1 - idx) for idx in range(s))
        out.append((tuple(p for p in parts if p > 0), height))
    return tuple(out)


def oracle_strip_additions(lam, length, max_rows=None):
    """Border-strip additions on a beta-set, capped at max_rows rows if set."""
    s = len(lam)
    slots = s + length if max_rows is None else max_rows
    if s > slots:
        return ()
    beta = [lam[i] + slots - 1 - i for i in range(s)]
    beta += [slots - 1 - i for i in range(s, slots)]
    present = set(beta)
    out = []
    for i, bv in enumerate(beta):
        nb = bv + length
        if nb in present:
            continue
        height = sum(1 for j in range(i) if beta[j] < nb)
        newbeta = sorted((present - {bv}) | {nb}, reverse=True)
        parts = (newbeta[idx] - (slots - 1 - idx) for idx in range(slots))
        out.append((tuple(p for p in parts if p > 0), height))
    return tuple(out)


def oracle_weight_multiplicities(a, b, rows):
    """Weight multiplicities K of Sym^b(Sym^a C^rows), keyed by exponent vector.

    A weight space is spanned by the multisets of b degree-a monomials whose
    exponent vectors sum to the weight, so K is an unbounded knapsack over
    the monomials: level k counts the multisets of k of them.
    """
    # stars and bars: rows - 1 bars among a + rows - 1 slots, the gaps between
    # them are the exponents of one degree-a monomial
    monomials = [tuple(later - earlier - 1 for earlier, later
                       in zip((-1,) + bars, bars + (a + rows - 1,)))
                 for bars in combinations(range(a + rows - 1), rows - 1)]
    levels = [Counter({(0,) * rows: 1})] + [Counter() for _ in range(b)]
    for mono in monomials:
        for k in range(1, b + 1):  # ascending, so one monomial may repeat
            level = levels[k]
            for weight, count in levels[k - 1].items():
                level[tuple(w + m for w, m in zip(weight, mono))] += count
    return levels[b]


def oracle_weyl_multiplicities(a, b, rows):
    """Multiplicity of every shape with at most `rows` rows in h_b[h_a].

    Weyl's character formula read off at the weights (Fulton-Harris, 24.1):
    the multiplicity of lam is the sum over w in S_rows of
    sgn(w) K(lam + delta - w delta), with delta = (rows-1, ..., 1, 0).
    Only characters of GL_rows appear, no symmetric-group characters and no
    border strips.
    """
    weights = oracle_weight_multiplicities(a, b, rows)
    delta = range(rows - 1, -1, -1)
    shifts = []
    for perm in permutations(range(rows)):
        inversions = sum(1 for i, j in combinations(perm, 2) if i > j)
        shifts.append(((-1) ** inversions, [d - delta[p] for d, p in zip(delta, perm)]))
    out = {}
    for lam in oracle_partitions(a * b):
        if len(lam) <= rows:
            padded = lam + (0,) * (rows - len(lam))
            out[lam] = sum(sign * weights.get(tuple(map(add, padded, shift)), 0)
                           for sign, shift in shifts)
    return out


def oracle_box_count(r, a, b):
    """Partitions of r with at most b parts, each at most a; 0 for r < 0."""
    if r < 0:
        return 0
    return sum(1 for lam in oracle_partitions(r) if len(lam) <= b and (not lam or lam[0] <= a))


def oracle_predictions(a, b, lam):
    """Every rule's prediction for one shape of weight a*b on the a x b board,
    in the hook-coordinate form the package used before its rules became one
    integer pass: a validated HookCoordinates per shape and one Prediction
    per rule, in rule order."""
    from foulkes.partitions import to_hook_coords
    from foulkes.vanishing import Prediction, Rule, Verdict

    def zero_if(fires, rule):
        return Prediction(rule, Verdict.ZERO, 0) if fires else \
            Prediction(rule, Verdict.NO_CLAIM, None)

    coords = to_hook_coords(lam)
    assert coords.total == a * b
    k, tail = coords.leg, coords.tail_weight
    first = coords.inside[0] if coords.inside else 0
    preds = [
        zero_if(len(lam) > b, Rule.MANY_PARTS),
        zero_if(len(lam) > 1 and all(p == 1 for p in lam[1:]), Rule.HOOK),
        zero_if(k > tail and 2 * first < (k - tail) * (k - tail + 1), Rule.INSIDE_BOUND),
        zero_if(1 <= coords.inside_weight <= k and coords.inside != (1,) * k,
                Rule.SMALL_INSIDE),
    ]
    if len(lam) <= 2:
        r = lam[1] if len(lam) == 2 else 0
        preds.append(Prediction(Rule.TWO_ROW, Verdict.VALUE,
                                oracle_box_count(r, a, b) - oracle_box_count(r - 1, a, b)))
    if len(lam) >= 2 and lam[0] >= 2 and all(p == 2 for p in lam[1:]):
        claimed = 1 <= k < b and a >= 2
        preds.append(Prediction(Rule.COLUMN_INSIDE, Verdict.ONE, 1) if claimed else
                     Prediction(Rule.COLUMN_INSIDE, Verdict.NO_CLAIM, None))
    return tuple(preds)


def oracle_hold(a, b, rows):
    """The misses, row by row and rule by rule, and how many rows some rule
    calls zero, with every claim read off oracle_predictions."""
    from foulkes.vanishing import Discrepancy, Verdict

    misses, called = [], 0
    for lam, actual in rows:
        claims = [p for p in oracle_predictions(a, b, lam) if p.verdict is not Verdict.NO_CLAIM]
        misses += [Discrepancy(lam, p.rule, p.expected, actual)
                   for p in claims if p.expected != actual]
        called += any(p.verdict is Verdict.ZERO for p in claims)
    return misses, called
