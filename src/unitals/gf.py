"""Exact arithmetic in small Galois fields GF(p^k).

Field elements are plain integers in [0, p^k): the base-p digits of the
integer are the coefficients of the polynomial representative, lowest
degree first.  Multiplication, inversion and powering go through exp/log
tables built from a multiplicative generator, so they cost O(1) after
construction.  Fields are capped at 2^16 elements.
"""

from __future__ import annotations

from math import isqrt

MAX_FIELD_SIZE = 1 << 16


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _digits(x: int, p: int) -> list[int]:
    """Base-p digits of x, lowest first, without trailing zeros."""
    ds = []
    while x:
        x, r = divmod(x, p)
        ds.append(r)
    return ds


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        c = (a[-1] * lead_inv) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree up to deg(m)/2."""
    deg = len(m) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for fint in range(p**d, 2 * p**d):
            f = _digits(fint, p)
            if not _poly_mod(m, f, p):
                return False
    return True


class GaloisField:
    """GF(p^k) with a canonical (lexicographically smallest) modulus."""

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if p**k > MAX_FIELD_SIZE:  # before the primality test, whose trial division is slow on a huge p
            raise ValueError(f"field GF({p}^{k}) exceeds the size cap {MAX_FIELD_SIZE}")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.k = k
        self.size = p**k
        self.modulus = self._find_modulus()
        self._exp: list[int] = []
        self._log: dict[int, int] = {}
        self._build_tables()

    # modulus is encoded like elements: base-p digits = coefficients
    def _find_modulus(self) -> int:
        p, k = self.p, self.k
        if k == 1:
            return p  # the polynomial x
        for cand in range(p**k, 2 * p**k):
            if _is_irreducible(_digits(cand, p), p):
                return cand
        raise AssertionError("no irreducible polynomial found")  # pragma: no cover

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(_digits(a, self.p), _digits(b, self.p), self.p)
        red = _poly_mod(prod, _digits(self.modulus, self.p), self.p)
        return sum(c * self.p**i for i, c in enumerate(red))

    def _build_tables(self) -> None:
        q = self.size
        for g in range(1, q):
            powers = [1]
            x = g
            while x != 1:
                powers.append(x)
                x = self._raw_mul(x, g)
            if len(powers) == q - 1:
                self._exp = powers
                self._log = {v: i for i, v in enumerate(powers)}
                return
        raise AssertionError("no generator found")  # pragma: no cover

    # ------------------------------------------------------------------
    # arithmetic

    def add(self, a: int, b: int, sign: int = 1) -> int:
        """a + sign * b, digit by digit."""
        if self.p == 2:
            return a ^ b
        out = 0
        pw = 1
        for _ in range(self.k):
            out += ((a + sign * b) % self.p) * pw
            a //= self.p
            b //= self.p
            pw *= self.p
        return out

    def neg(self, a: int) -> int:
        return self.add(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, b, -1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.size - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        return self._exp[-self._log[a] % (self.size - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero in GF")
            return 0
        return self._exp[(self._log[a] * e) % (self.size - 1)]

    # ------------------------------------------------------------------
    # structure relative to the index-2 subfield

    @property
    def subfield_order(self) -> int:
        if self.k % 2:
            raise ValueError("field is not a quadratic extension")
        return self.p ** (self.k // 2)

    def conjugate(self, a: int) -> int:
        """x -> x^q, the involutory automorphism fixing GF(q) inside GF(q^2)."""
        return self.pow(a, self.subfield_order)

    def is_in_subfield(self, a: int) -> bool:
        return self.conjugate(a) == a

    def roots_of_unity(self, d: int) -> tuple[int, ...]:
        """All solutions of x^d = 1, as powers of a generator."""
        if d < 1 or (self.size - 1) % d != 0:
            raise ValueError(f"{d} does not divide {self.size - 1}")
        step = (self.size - 1) // d
        return tuple(sorted(self._exp[i * step % (self.size - 1)] for i in range(d)))

    # ------------------------------------------------------------------
    # conversions

    def coeffs(self, a: int) -> tuple[int, ...]:
        ds = _digits(a, self.p)
        return tuple(ds + [0] * (self.k - len(ds)))

    def element(self, coeffs) -> int:
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients")
        return sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        return f"GaloisField({self.p}, {self.k})"
