import pytest
from hypothesis import given, strategies as st

from linrem.errors import NonPrimeModulus, SearchBudgetExceeded
from linrem.field import PrimeField, is_prime, next_prime_above


def test_is_prime_small_table():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == expected


def test_is_prime_matches_trial_division_below_100000():
    composite = bytearray(100_000)
    composite[0] = composite[1] = 1
    for d in range(2, 317):
        if not composite[d]:
            composite[d * d::d] = b"\x01" * len(range(d * d, 100_000, d))
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if not composite[n]
    ]


def test_is_prime_on_large_numbers():
    # 3,215,031,751 = 151 * 751 * 28351 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7.
    assert not is_prime(3_215_031_751)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # The least strong pseudoprime to the twelve bases 2...37; base 41
    # exposes it.
    assert not is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(NonPrimeModulus):
        PrimeField(318_665_857_834_031_151_167_461)


def test_modulus_beyond_the_certified_bound_refused():
    # Thirteen Miller-Rabin bases decide primality below this bound only.
    with pytest.raises(SearchBudgetExceeded):
        PrimeField(3_317_044_064_679_887_385_961_981)
    assert PrimeField(2**61 - 1).q == 2**61 - 1


def test_next_prime_above():
    assert next_prime_above(1) == 2
    assert next_prime_above(2) == 3
    assert next_prime_above(10) == 11
    assert next_prime_above(13) == 17
    assert next_prime_above(100) == 101


def test_composite_modulus_rejected():
    with pytest.raises(NonPrimeModulus):
        PrimeField(6)
    with pytest.raises(NonPrimeModulus):
        PrimeField(1)


def test_element_canonicalizes():
    fld = PrimeField(7)
    assert fld.element(-1) == 6
    assert fld.element(7) == 0
    assert fld.element(15) == 1


def test_arithmetic_known_values():
    fld = PrimeField(5)
    assert fld.add(3, 4) == 2
    assert fld.sub(1, 3) == 3
    assert fld.mul(3, 4) == 2
    assert fld.neg(2) == 3
    assert fld.inv(3) == 2
    assert fld.div(1, 2) == 3
    assert list(fld.elements()) == [0, 1, 2, 3, 4]


def test_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(), st.integers())
def test_field_ops_match_modular_arithmetic(q, a, b):
    fld = PrimeField(q)
    assert fld.add(a, b) == (a + b) % q
    assert fld.sub(a, b) == (a - b) % q
    assert fld.mul(a, b) == (a * b) % q
    assert fld.neg(a) == (-a) % q


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=10**6))
def test_inverse_property(q, a):
    fld = PrimeField(q)
    a = fld.element(a)
    if a == 0:
        return
    assert fld.mul(a, fld.inv(a)) == 1
