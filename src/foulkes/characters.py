"""Symmetric group character values over the integers.

Irreducible values come from the Murnaghan-Nakayama recursion on border-strip
removals, each one ribbon (partitions.ribbon_strips with count 1) taken off
the shape's canonical abacus (partitions.to_abacus), memoized process-wide.
No multiplicity is computed here: tables and point queries run the plethysm
recursion in the Schur basis (symfunc.plethysm_h_expansion and
symfunc.plethysm_h_pull). A whole class function is held as a
symfunc.PSeries, the sum of its values over each class.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from foulkes.partitions import (
    Partition,
    ribbon_strips,
    to_abacus,
    validate_partition,
)


def mn_char(lam: Partition, mu: Partition) -> int:
    """Value of the irreducible character indexed by lam on the class mu."""
    lam = validate_partition(lam)
    mu = tuple(sorted(mu, reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError(
            f"shape weight {sum(lam)} differs from class weight {sum(mu)}")
    if mu and mu[-1] < 1:
        raise ValueError(f"cycle lengths must be positive: {mu}")
    return _mn(to_abacus(lam), mu)


@lru_cache(maxsize=None)
def _mn(state: int, cycles: Partition) -> int:
    """The value on cycles of the irreducible whose canonical abacus is state.

    A removal that lands a bead on position 0 leaves zero rows behind; they
    are shifted out, so every key stays canonical.
    """
    if not cycles:
        return 1
    total = 0
    rest = cycles[1:]
    for smaller, height in ribbon_strips(state, -cycles[0], 1):
        value = _mn(smaller >> (~smaller & smaller + 1).bit_length() - 1, rest)
        total += -value if height % 2 else value
    return total


def dimension(lam: Partition) -> int:
    """Degree of the irreducible character, by the hook length formula in
    Frobenius' form: n! * prod_(i<j) (h_i - h_j) / prod_i h_i!, over the
    hook lengths h_i = lam_i + len(lam) - 1 - i of the first column, which
    are lam's beta numbers."""
    lam = validate_partition(lam)
    rows = len(lam)
    hooks = [part + rows - 1 - i for i, part in enumerate(lam)]
    num = factorial(sum(lam))
    den = 1
    for i, hook in enumerate(hooks):
        den *= factorial(hook)
        for lower in hooks[i + 1:]:
            num *= hook - lower
    if num % den:
        raise ArithmeticError(f"the hook factorials {den} do not divide n! times "
                              f"the hook differences, {num}")
    return num // den
