"""sort_masks against the documented node order, bit_key."""

from hypothesis import given, settings, strategies as st

from quasimodules.bitset import bit_key, sort_masks


@st.composite
def width_and_masks(draw):
    """Arbitrary masks plus one-bit and two-bit perturbations of a shared
    base, so that equal sizes and long common low parts are frequent."""
    width = draw(st.integers(1, 130))
    full = (1 << width) - 1
    base = draw(st.integers(0, full))
    bits = st.integers(0, width - 1)
    masks = draw(st.lists(st.integers(0, full), max_size=20))
    masks += [base ^ 1 << i for i in draw(st.lists(bits, max_size=10))]
    masks += [base ^ 1 << i ^ 1 << j
              for i, j in draw(st.lists(st.tuples(bits, bits), max_size=20))]
    return width, masks + [0, full]


@given(width_and_masks())
@settings(max_examples=300, deadline=None)
def test_sort_masks_matches_bit_key(case):
    width, masks = case
    assert sort_masks(masks, width) == sorted(masks, key=bit_key)


def test_sort_masks_at_every_width_and_byte_boundary():
    for width in range(1, 131):
        full = (1 << width) - 1
        singles = [1 << i for i in range(width)]
        masks = [0, full, *singles, *(full ^ m for m in singles),
                 *(3 << i for i in range(width - 1)), *(1 | 1 << i for i in range(1, width))]
        masks.reverse()
        assert sort_masks(masks, width) == sorted(masks, key=bit_key), width
    assert sort_masks([], 8) == []
