import pytest

from unitals import gf
from unitals.gf import GaloisField


def test_smallest_modulus_gf4():
    f = GaloisField(2, 2)
    assert f.coeffs(f.modulus - 4) == (1, 1)  # x^2 + x + 1


def test_smallest_modulus_gf9():
    f = GaloisField(3, 2)
    # x^2 + 1: no root mod 3, and smallest in the canonical order
    assert f.modulus == 9 + 1
    for a in range(3):
        assert (a * a + 1) % 3 != 0


def test_prime_field_modulus():
    f = GaloisField(2, 1)
    assert f.modulus == 2  # the polynomial x
    assert f.size == 2


def test_not_prime_rejected():
    with pytest.raises(ValueError):
        GaloisField(6, 1)


def test_too_large_rejected():
    with pytest.raises(ValueError):
        GaloisField(2, 17)


def test_size_cap_checked_before_primality(monkeypatch):
    def refuse(n):
        raise AssertionError("is_prime called")

    monkeypatch.setattr(gf, "is_prime", refuse)
    with pytest.raises(ValueError, match="size cap"):
        GaloisField(2**61 - 1)


def test_gf4_multiplication():
    f = GaloisField(2, 2)
    omega = f.element((0, 1))
    assert f.mul(omega, omega) == f.element((1, 1))  # x^2 = x + 1


def test_inverses_gf9():
    f = GaloisField(3, 2)
    for a in range(1, 9):
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero():
    f = GaloisField(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_multiplicative_order_gf16():
    f = GaloisField(2, 4)
    assert all(f.pow(g, 15) == 1 for g in range(1, 16))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3), (7, 1), (2, 4), (5, 2), (7, 2)])
def test_field_axioms_exhaustive(p, k):
    f = GaloisField(p, k)
    els = list(f.elements())
    if f.size <= 16:
        triples = [(a, b, c) for a in els for b in els for c in els]
    else:
        import random

        rng = random.Random(99)
        triples = [(rng.choice(els), rng.choice(els), rng.choice(els)) for _ in range(2000)]
    for a, b, c in triples:
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_table_mul_matches_polynomial_mul():
    f = GaloisField(2, 8)
    for a in range(0, 256, 7):
        for b in range(0, 256, 5):
            assert f.mul(a, b) == f._raw_mul(a, b)


def test_conjugate_involution_and_fixed_field():
    for p, k in [(2, 2), (3, 2), (2, 4), (5, 2)]:
        f = GaloisField(p, k)
        q = f.subfield_order
        fixed = [a for a in f.elements() if f.conjugate(a) == a]
        assert len(fixed) == q
        for a in f.elements():
            assert f.conjugate(f.conjugate(a)) == a


def test_conjugate_is_automorphism():
    f = GaloisField(2, 4)
    for a in f.elements():
        for b in f.elements():
            assert f.conjugate(f.mul(a, b)) == f.mul(f.conjugate(a), f.conjugate(b))
            assert f.conjugate(f.add(a, b)) == f.add(f.conjugate(a), f.conjugate(b))


def test_conjugate_omega_gf4():
    f = GaloisField(2, 2)
    omega = f.element((0, 1))
    assert f.conjugate(omega) == f.element((1, 1))
    assert not f.is_in_subfield(omega)


def test_subfield_membership_counts():
    f25 = GaloisField(5, 2)
    assert sum(f25.is_in_subfield(a) for a in f25.elements()) == 5
    f16 = GaloisField(2, 4)
    assert f16.is_in_subfield(0)


def test_roots_of_unity():
    f4 = GaloisField(2, 2)
    assert f4.roots_of_unity(3) == (1, 2, 3)  # all nonzero elements
    assert f4.roots_of_unity(1) == (1,)

    f9 = GaloisField(3, 2)
    roots = f9.roots_of_unity(4)
    assert len(roots) == 4
    brute = sorted(a for a in f9.elements() if f9.pow(a, 4) == 1) if True else None
    assert list(roots) == brute
    for a in roots:
        for b in roots:
            assert f9.mul(a, b) in roots


def test_roots_of_unity_bad_divisor():
    f = GaloisField(3, 2)
    with pytest.raises(ValueError):
        f.roots_of_unity(3)


def test_coeff_roundtrip():
    f = GaloisField(3, 2)
    for a in f.elements():
        assert f.element(f.coeffs(a)) == a
