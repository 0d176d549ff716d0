import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarb.ff import _poly_from_code, _poly_rem, field_make, field_of_order, least_irreducible, prime_power


def _mul_raw(a: int, b: int, p: int, k: int, poly: tuple[int, ...]) -> int:
    """Reference product: schoolbook polynomial product of the digit vectors,
    reduced modulo the defining polynomial.  Needs no table."""
    da, db = _poly_from_code(a, p, k), _poly_from_code(b, p, k)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    out = 0
    for c in reversed(_poly_rem(prod, list(poly) + [1], p)):
        out = out * p + c
    return out


def _reference_scan(p: int, k: int) -> tuple[int, list[int]]:
    """(least code of full multiplicative order, its first order-1 powers),
    by multiplying out the powers of every candidate in turn."""
    order, poly = p**k, least_irreducible(p, k)
    for cand in range(1, order):
        powers = [1]
        while (x := _mul_raw(powers[-1], cand, p, k, poly)) != 1:
            powers.append(x)
        if len(powers) == order - 1:
            return cand, powers
    raise AssertionError("no primitive element")


def _reference_add(f, a: int, b: int) -> int:
    da, db = _poly_from_code(a, f.p, f.k), _poly_from_code(b, f.p, f.k)
    return sum((x + y) % f.p * f.p**i for i, (x, y) in enumerate(zip(da, db)))


def brute_force_irreducible_quadratics_gf2():
    """Oracle: factor every monic quadratic over GF(2) by trying linear roots."""
    out = []
    for c1 in range(2):
        for c0 in range(2):
            has_root = any((a * a + c1 * a + c0) % 2 == 0 for a in range(2))
            if not has_root:
                out.append((c0, c1))
    return out


def test_gf4_defining_polynomial_is_the_unique_irreducible_quadratic():
    assert brute_force_irreducible_quadratics_gf2() == [(1, 1)]
    assert field_make(2, 2).poly == (1, 1)  # x^2 + x + 1


def test_least_irreducible_is_minimal_by_code():
    # over GF(3): x^2 (code 0) and x^2+1 (code 1) -- the latter has no root
    assert least_irreducible(3, 2) == (1, 0)


def test_primitive_element_order_gf9():
    f9 = field_make(3, 2)
    x = 1
    seen = set()
    for _ in range(8):
        x = f9.mul(x, f9.primitive)
        seen.add(x)
    assert x == 1 and len(seen) == 8


def test_prime_field_gf2():
    f2 = field_make(2, 1)
    assert f2.order == 2
    assert f2.add(1, 1) == 0
    assert f2.mul(1, 1) == 1


@pytest.mark.parametrize("order", [4, 8, 9, 16, 25, 27, 49, 64, 81])
def test_field_axioms_exhaustive(order):
    f = field_of_order(order)
    n = f.order
    add, mul = f.add, f.mul
    # inverses and identities
    for a in range(n):
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, f.neg(a)) == 0
        if a:
            assert mul(a, f.inv(a)) == 1
    # commutativity
    for a in range(n):
        for b in range(a, n):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    # associativity and distributivity over all triples
    for a in range(n):
        for b in range(n):
            ab_add = add(a, b)
            ab_mul = mul(a, b)
            for c in range(n):
                assert add(ab_add, c) == add(a, add(b, c))
                assert mul(ab_mul, c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(ab_mul, mul(a, c))


def test_conjugate_on_gf4():
    f4 = field_make(2, 2)
    w = 2  # the class of x
    assert f4.conjugate(w) == f4.mul(w, w)
    assert f4.conjugate(0) == 0
    assert f4.conjugate(1) == 1


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2)])
def test_conjugate_is_an_involutive_automorphism(p, k):
    f = field_make(p, k)
    for a in range(f.order):
        assert f.conjugate(f.conjugate(a)) == a
        for b in range(f.order):
            assert f.conjugate(f.mul(a, b)) == f.mul(f.conjugate(a), f.conjugate(b))
            assert f.conjugate(f.add(a, b)) == f.add(f.conjugate(a), f.conjugate(b))


def test_conjugate_requires_square_order():
    f8 = field_make(2, 3)
    with pytest.raises(ValueError):
        f8.conjugate(3)


def test_field_make_rejects_bad_parameters():
    with pytest.raises(ValueError):
        field_make(4, 1)  # not prime
    with pytest.raises(ValueError):
        field_make(2, 17)  # above the 2^16 ceiling
    with pytest.raises(ValueError):
        field_of_order(12)  # not a prime power


def _prime_powers(limit: int) -> list[int]:
    primes = [p for p in range(2, limit + 1) if all(p % f for f in range(2, p))]
    return sorted(p**k for p in primes for k in range(1, limit.bit_length()) if p**k <= limit)


@pytest.mark.parametrize("q", _prime_powers(256))
def test_tables_match_the_reference_scan(q):
    f = field_of_order(q)
    primitive, powers = _reference_scan(*prime_power(q))
    assert f.primitive == primitive
    assert list(f.exp[: q - 1]) == powers
    # Two periods, then a zero tail that log[0] points into.
    zero = 2 * (q - 1)
    assert f.exp[q - 1 : zero] == f.exp[: q - 1] and f.exp[zero:] == (0,) * (zero + 1)
    assert f.log[0] == zero and all(f.log[x] == i for i, x in enumerate(powers))


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from([(3, 10), (2, 16)]), st.data())
def test_large_field_arithmetic_matches_the_reference_product(pk, data):
    f = field_make(*pk)
    a, b, c = (data.draw(st.integers(0, f.order - 1)) for _ in range(3))
    poly = (f.p, f.k, f.poly)
    assert f.mul(a, b) == _mul_raw(a, b, *poly)
    assert f.add(a, b) == _reference_add(f, a, b)
    assert f.sub(f.add(a, b), b) == a and f.add(a, f.neg(a)) == 0
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert _mul_raw(a, f.inv(a), *poly) == 1
    for x in (f.add(a, b), f.sub(a, b), f.neg(a), f.mul(a, b)):
        assert type(x) is int


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 10), (2, 16)])
def test_digit_arithmetic_on_int32_arrays_matches_scalars(p, k):
    f = field_make(p, k)
    rng = np.random.default_rng(p * 100 + k)
    a, b = rng.integers(0, f.order, size=(2, 2000), dtype=np.int32)
    for got, want in [
        (f.add(a, b), [f.add(x, y) for x, y in zip(a.tolist(), b.tolist())]),
        (f.sub(a, b), [f.sub(x, y) for x, y in zip(a.tolist(), b.tolist())]),
        (f.neg(a), [f.neg(x) for x in a.tolist()]),
    ]:
        assert got.dtype == np.int32 and got.tolist() == want
