import pytest
from hypothesis import given
from hypothesis import strategies as st

from drloci.partitions import associated_partition, check_extension, ord_df


def test_associated_partition_examples():
    assert associated_partition((1, 1, 1, -3)) == (0, 0, 0, -4)
    assert associated_partition((4, -4)) == (3, -5)
    assert associated_partition(()) == ()


def test_associated_partition_rejects_nonzero_sum():
    with pytest.raises(ValueError):
        associated_partition((1, 1))


def test_check_extension_examples():
    mu = (1, 1, 1, -3)
    assert check_extension((0, 0, 0, -4, 1, 1, 1, 1, 1, 1), mu, 2)
    assert not check_extension((0, 0, 0, -4), mu, 2)  # missing positive tail
    assert not check_extension((0, 0, 0, -4, 1, 1, 1, 1, 1, 0, 1), mu, 2)  # zero entry


def test_ord_df_examples():
    assert ord_df(3, True) == -4
    assert ord_df(1, False) == 0
    assert ord_df(2, False) == 1


@given(st.integers(min_value=1, max_value=50), st.booleans())
def test_ord_df_bijection(mult, pole):
    o = ord_df(mult, pole)
    assert o != -1
    assert (o < -1, -o - 1 if o < -1 else o + 1) == (pole, mult)
