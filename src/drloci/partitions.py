"""Order-of-vanishing arithmetic for zero partitions and their extensions.

A type is an integer vector mu summing to 0 (orders of the marked
zeros/poles of the rational function).  Passing to the exact differential
shifts every entry down by one; an extension appends strictly positive
entries (the orders at the marked critical points) so that the total
becomes 2g-2.  Entries mu_k = 0 are classified with the zeros.
"""

from __future__ import annotations


def associated_partition(mu: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Shift every entry down by one (the differential's orders at the legs)."""
    if sum(mu) != 0:
        raise ValueError(f"mu must sum to 0, got {sum(mu)}")
    return tuple(m - 1 for m in mu)


def check_extension(mu_hat: tuple[int, ...] | list[int],
                    mu: tuple[int, ...] | list[int], g: int) -> bool:
    """True iff mu_hat = (associated(mu), tail) with a strictly positive tail
    summing up to 2g-2 overall."""
    if sum(mu) != 0:
        return False
    assoc = associated_partition(mu)
    n = len(assoc)
    if len(mu_hat) < n or tuple(mu_hat[:n]) != assoc:
        return False
    tail = tuple(mu_hat[n:])
    if any(t <= 0 for t in tail):
        return False
    return sum(mu_hat) == 2 * g - 2


def ord_df(mult: int, at_pole: bool) -> int:
    """Order of df at a point of multiplicity ``mult`` (ramification index
    mult-1): mult-1 at finite values, -mult-1 over infinity.

    The map (mult, flag) -> order is a bijection onto Z \\ {-1}: exact
    differentials never acquire simple poles.
    """
    if mult < 1:
        raise ValueError("multiplicity must be >= 1")
    return -mult - 1 if at_pole else mult - 1

