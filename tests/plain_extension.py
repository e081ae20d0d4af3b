"""The extension-typing clause of ``validate_twdr`` as a reference:
orders of a fully marked decoration typed against an extension of mu,
spelled out through the associated partition and its extension.

A type is an integer vector mu summing to 0 (orders of the marked
zeros/poles of the rational function).  Passing to the exact differential
shifts every entry down by one; an extension appends strictly positive
entries (the orders at the marked critical points) so that the total
becomes 2g-2.
"""

from __future__ import annotations

from drloci.decorations import TwdrDecoration
from drloci.graphs import MarkedDualGraph


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


def extension_typing(graph: MarkedDualGraph, dec: TwdrDecoration) -> list[tuple[str, str, str]]:
    """The violations the clause adds, last, to a ``validate_twdr`` report."""
    violations = []
    # typing against an extension of mu, when the graph is of type mu
    mu = graph.mu
    if mu and sum(mu) == 0:
        mu_hat = tuple(m - 1 for m in mu) + tuple(sorted(o for _, _, o in dec.extra_legs))
        if not check_extension(mu_hat, mu, graph.total_genus):
            violations.append(("extension-typing", "mu",
                               f"orders {mu_hat} do not extend mu for genus {graph.total_genus}"))
    return violations
