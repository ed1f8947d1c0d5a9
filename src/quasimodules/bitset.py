"""Helpers for int-encoded subsets.

Every set in this package (lattice element subsets, carrier subsets) is a
plain Python int used as a bitmask, so subset tests, meets of families and
membership are single machine operations.
"""


def iter_bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    """Bitmask with exactly the given bit positions set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bit_key(mask):
    """Canonical sort key for same-universe masks: size, then members."""
    return (mask.bit_count(), tuple(iter_bits(mask)))


def superset_masks(masks):
    """Per mask, the bitmask of the indices of every mask containing it, its
    own included: the AND over its bits of "masks holding this bit"."""
    holding = {}
    for j, m in enumerate(masks):
        for q in iter_bits(m):
            holding[q] = holding.get(q, 0) | 1 << j
    out = []
    for m in masks:
        above = (1 << len(masks)) - 1
        for q in iter_bits(m):
            above &= holding[q]
        out.append(above)
    return out


def cover_pairs(ups):
    """Cover pairs (i, j) of a partial order, in lexicographic order.

    ups[i] is the bitmask of every j >= i, i included. j covers i iff j > i
    and j lies above none of i's other upper elements (transitive
    reduction). An upper element already known to lie beyond another is
    skipped, since what is above it is beyond too; when indices follow the
    order, only the covers themselves are visited.
    """
    out = []
    for i, up in enumerate(ups):
        rest, beyond = up & ~(1 << i), 1 << i
        while rest:
            low = rest & -rest
            beyond |= ups[low.bit_length() - 1] & ~low
            rest &= ~(beyond | low)
        out.extend((i, j) for j in iter_bits(up & ~beyond))
    return out
