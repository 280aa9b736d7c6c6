"""Integer partitions: parsing, orders, hook coordinates, abacus ribbon strips.

A partition is a plain tuple of weakly decreasing positive ints; () is the
empty partition. Everything here is exact integer arithmetic.
enum_partitions is one loop with no recursion (ZS1). On the abacus a shape
is one int with a bit per bead, so ribbon_strips reads the beads that can
move off shifted masks of it, and finds the moves that floor forces band by
band of k positions, before it visits any bead on its own.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]

_TOKEN = re.compile(r"(\d+)(?:\^(\d+))?\Z")


def validate_partition(lam) -> Partition:
    """Return lam as a tuple, insisting on canonical descending positive parts."""
    lam = tuple(lam)
    for i, p in enumerate(lam):
        if not isinstance(p, int) or p < 1 or (i and lam[i - 1] < p):
            raise ValueError(f"not a partition in canonical form: {lam!r}")
    return lam


def parse_partition(text: str, weight: int | None = None) -> Partition:
    """Parse text like '7,3,1,1' or '3^10' or '4,2^3,1' into a partition.

    Each comma-separated token is INT or INT^COUNT with INT, COUNT >= 1.
    No whitespace is allowed anywhere. With weight set, text whose parts sum
    past it is refused before any repeat is expanded.
    """
    runs: list[tuple[int, int]] = []
    for token in text.split(","):
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad partition token {token!r} in {text!r}")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        if value < 1 or count < 1:
            raise ValueError(f"parts and repeat counts must be >= 1: {token!r}")
        runs.append((value, count))
    if weight is not None and sum(value * count for value, count in runs) > weight:
        raise ValueError(f"{text} is not a partition of {weight} or less")
    parts = [value for value, count in runs for _ in range(count)]
    return tuple(sorted(parts, reverse=True))


def format_partition(lam: Partition) -> str:
    """Canonical text form, fully expanded; the empty partition renders as ''."""
    return ",".join(str(p) for p in lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def dominates(lam: Partition, mu: Partition) -> bool:
    """True iff every prefix sum of lam weakly exceeds the matching one of mu.

    Only defined for equal weights; anything else raises.
    """
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of equal weight only")
    acc_l = acc_m = 0
    for x, y in zip(lam, mu):
        acc_l += x
        acc_m += y
        if acc_l < acc_m:
            return False
    return True


def fits_inside(lam: Partition, mu: Partition) -> bool:
    """True iff the diagram of lam is contained cell-by-cell in that of mu."""
    return len(lam) <= len(mu) and all(x <= y for x, y in zip(lam, mu))


@dataclass(frozen=True)
class HookCoordinates:
    """A nonempty partition encoded as (first-column leg, shape inside the hook).

    The encoded partition is (total - leg - |inside|, inside_1 + 1, ...,
    inside_t + 1, 1^(leg - t)). Construction validates that this is a real
    partition: inside fits in leg rows and the first row is long enough.
    """

    total: int
    leg: int
    inside: Partition

    def __post_init__(self):
        object.__setattr__(self, "inside", validate_partition(self.inside))
        if self.leg < 0:
            raise ValueError("leg must be >= 0")
        if len(self.inside) > self.leg:
            raise ValueError(
                f"inside partition {self.inside} has more than leg={self.leg} rows")
        first = self.total - self.leg - sum(self.inside)
        least = (self.inside[0] + 1) if self.inside else 1
        if first < least:
            raise ValueError(
                f"first row would be {first}, needs at least {least} "
                f"(total={self.total}, leg={self.leg}, inside={self.inside})")

    @property
    def inside_weight(self) -> int:
        return sum(self.inside)

    @property
    def tail_weight(self) -> int:
        """Weight of the inside partition below its own first row."""
        return sum(self.inside[1:])


def to_hook_coords(lam: Partition) -> HookCoordinates:
    """Encode a nonempty partition by leg length and inside partition."""
    lam = validate_partition(lam)
    if not lam:
        raise ValueError("cannot encode the empty partition")
    inside = tuple(p - 1 for p in lam[1:] if p >= 2)
    return HookCoordinates(total=sum(lam), leg=len(lam) - 1, inside=inside)


def from_hook_coords(coords: HookCoordinates) -> Partition:
    """Decode back to the partition; inverse of to_hook_coords."""
    first = coords.total - coords.leg - coords.inside_weight
    ones = coords.leg - len(coords.inside)
    return (first,) + tuple(p + 1 for p in coords.inside) + (1,) * ones


def enum_partitions(n: int, max_parts: int | None = None,
                    max_part: int | None = None) -> list[Partition]:
    """All partitions of n in descending lexicographic order, optionally bounded.

    Zoghbi and Stojmenovic's ZS1 ("Fast algorithms for generating integer
    partitions", 1998), with no recursion: x holds the partition padded with
    ones, m is its number of parts and h the index of its last part above 1.
    The next partition lowers x[h] by one and refills the rest greedily with
    parts of the new size. With max_parts, where the rest does not fit in the
    parts left, h moves left first. The first partition meets max_part, and
    no later one has a larger part.
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    if n == 0:
        return [()]
    cap = n if max_part is None else min(max_part, n)
    slots = n if max_parts is None else min(max_parts, n)
    if cap < 1 or slots < 1 or cap * slots < n:
        return []
    m, rest = divmod(n, cap)
    x = [cap] * m + [1] * (slots - m)
    if rest:
        x[m] = rest
        m += 1
    h = m - 1
    while h >= 0 and x[h] == 1:
        h -= 1
    out = [tuple(x[:m])]
    while h >= 0:
        part = x[h] - 1
        spare = m - h  # the ones after h, and the unit taken off x[h]
        while spare > part * (slots - h - 1):
            spare += part + 1
            x[h] = 1
            h -= 1
            if h < 0:
                return out
            part = x[h] - 1
        x[h] = part
        if part == 1:
            m = h + 1 + spare
            h -= 1
        else:
            while spare >= part:
                h += 1
                x[h] = part
                spare -= part
            m = h + 1 if not spare else h + 2
            if spare > 1:
                h += 1
                x[h] = spare
        out.append(tuple(x[:m]))
    return out


def box_partitions(r: int, a: int, b: int) -> list[Partition]:
    """Partitions of r with at most b parts, each part at most a."""
    if r < 0 or a < 0 or b < 0:
        raise ValueError("arguments must be >= 0")
    return enum_partitions(r, max_parts=b, max_part=a)


@lru_cache(maxsize=None)
def count_box_partitions(r: int, a: int, b: int) -> int:
    """len(box_partitions(r, a, b)) without enumerating; 0 for negative r."""
    if r < 0:
        return 0
    if r == 0:
        return 1
    if a <= 0 or b <= 0:
        return 0
    return count_box_partitions(r, a - 1, b) + count_box_partitions(r - a, a, b - 1)


def pieri_add(lam: Partition, k: int) -> set[Partition]:
    """All partitions reached by adding k boxes to lam, no two in one column."""
    lam = validate_partition(lam)
    if k < 0:
        raise ValueError("box count must be >= 0")
    rows = len(lam)
    results: set[Partition] = set()
    acc: list[int] = []

    def rec(i: int, remaining: int) -> None:
        if i == rows:
            if remaining == 0:
                results.add(tuple(acc))
            elif rows == 0 or remaining <= lam[-1]:
                results.add(tuple(acc) + (remaining,))
            return
        cap = remaining if i == 0 else min(remaining, lam[i - 1] - lam[i])
        for add in range(cap + 1):
            acc.append(lam[i] + add)
            rec(i + 1, remaining - add)
            acc.pop()

    rec(0, k)
    return results


def centralizer_order(lam: Partition) -> int:
    """Order of the centralizer of a permutation with cycle type lam."""
    z = 1
    for value, count in Counter(lam).items():
        z *= value ** count * factorial(count)
    return z


def to_abacus(lam: Partition, beads: int | None = None) -> int:
    """lam as an abacus: an int with bit p set for each bead at beta number p.

    Row i of lam, padded with zero rows to `beads` beads, is a bead at
    lam_i + beads - 1 - i (James-Kerber 1981, ch. 2). The default of
    len(lam) beads is the canonical state, which has bit 0 clear; a shape
    with more than `beads` rows cannot be written and raises.
    """
    if beads is None:
        beads = len(lam)
    if len(lam) > beads:
        raise ValueError(f"{lam} has more than {beads} rows")
    state = (1 << beads - len(lam)) - 1
    for i, p in enumerate(lam):
        state |= 1 << p + beads - 1 - i
    return state


def from_abacus(state: int) -> Partition:
    """The partition of an abacus with any number of beads; zero rows drop."""
    parts = []
    below = 0
    while state:
        bead = state & -state
        state ^= bead
        part = bead.bit_length() - 1 - below
        below += 1
        if part:
            parts.append(part)
    return tuple(parts[::-1])


def ribbon_strips(state: int, delta: int, count: int,
                  floor: bool = False) -> list[tuple[int, int]]:
    """Every (state, height) reached by adding (delta > 0) or removing
    (delta < 0) a horizontal strip of `count` ribbons of length k = |delta|
    (the ribbon Pieri rule, Lascoux-Leclerc-Thibon 1997); a border strip is
    the case count = 1.

    The abacus (see to_abacus) is read as k runners by residue mod k. Such a
    strip moves beads along their runners by steps of k, `count` steps in
    all, each bead staying strictly short of the old position of the next
    bead ahead of it on its runner (below it when removing, above it when
    adding, where a runner's top bead is bounded by `count` alone); so no
    move ever lands on a bead. Only a bead with an empty position k ahead
    can move, and a mask reads them all: state & ~(state << k) from position
    k up when removing, state & ~(state >> k) when adding. The beads move
    lowest first when removing and highest first when adding. A bead moving
    m steps adds or removes m ribbons, whose heights add up to the number of
    beads strictly between its old and new position when it moves. The
    height returned is that sum over the moves, and its parity is the
    strip's sign, which no order of the moves changes. The bead count never
    changes, so an addition never makes a shape with more rows than there
    are beads.

    With `floor` (removals only), only strips leaving the bottom k rows
    empty are made: the lowest bead of each runner r is forced onto
    position r, and those moves are made first. They are found band by
    band before any bead moves: of the runners empty at the bottom,
    ~state & (2^k - 1), band j hits those with a bead j*k above their
    residue, at j steps each. A runner with no bead, or more forced steps
    than `count`, leaves no strip.
    """
    k = abs(delta)
    if not k or count < 0:
        raise ValueError("a ribbon strip needs a nonzero length and count >= 0")
    if floor and delta > 0:
        raise ValueError("floor applies to removals only")
    height = 0
    # free: (bead, [(destination, the positions strictly between)] by steps)
    free = []
    if delta > 0:
        movable = state & ~(state >> k)
        while movable:
            bead = 1 << movable.bit_length() - 1
            movable ^= bead
            dest = bead
            moves = []
            for _ in range(count):
                dest <<= k
                if state & dest:
                    break
                moves.append((dest, dest - (bead << 1)))
            free.append((bead, moves))
    else:
        low = (1 << k) - 1
        movable = state & ~(state << k) & ~low
        moved = state
        if floor:
            empty = ~state & low
            band = state
            forced = j = 0
            while empty:
                band >>= k
                j += 1
                if not band:
                    return []
                hit = empty & band
                if hit:
                    count -= j * hit.bit_count()
                    if count < 0:
                        return []
                    empty ^= hit
                    forced |= hit << j * k
            movable &= ~forced
            while forced:
                bead = forced & -forced
                forced ^= bead
                dest = 1 << (bead.bit_length() - 1) % k
                height += (moved & bead - (dest << 1)).bit_count()
                moved ^= bead | dest
        while movable:
            bead = movable & -movable
            movable ^= bead
            dest = bead
            moves = []
            for _ in range(count):
                dest >>= k
                if not dest or state & dest:
                    break
                moves.append((dest, bead - (dest << 1)))
            free.append((bead, moves))
        state = moved
    # most[i]: the steps that beads i.. can take between them
    most = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        most[i] = most[i + 1] + len(free[i][1])
    if most[0] < count:
        return []
    if not count:
        return [(state, height)]
    out: list[tuple[int, int]] = []
    # partial strips (state, steps left, height), taking the beads in turn
    partial = [(state, count, height)]
    for i, (bead, moves) in enumerate(free):
        rest = most[i + 1]
        nxt = []
        for cur, left, height in partial:
            if left <= rest:
                nxt.append((cur, left, height))
                first = 1
            else:
                first = left - rest
            for m, (dest, between) in enumerate(moves[first - 1:left], first):
                if m == left:
                    out.append((cur ^ bead ^ dest, height + (cur & between).bit_count()))
                else:
                    nxt.append((cur ^ bead ^ dest, left - m, height + (cur & between).bit_count()))
        partial = nxt
    return out
