"""Shared test fixtures that the library itself does not need."""

from typing import Sequence

from groupbuy.schedule import full_mask, nonempty_subsets, rras_resource_shares


def rras_resource_table(order: Sequence[int], base: Sequence) -> dict:
    """Resource shares of the ranked rule for every non-empty subset.

    Builds the cross-monotonic twin (payment = resource) of a ranked schedule;
    the ranked rule's resource shares are cross-monotonic.
    """
    return {
        mask: rras_resource_shares(order, base, mask)
        for mask in nonempty_subsets(full_mask(len(order)))
    }
