"""Small permutation groups: closure from generators and structure naming.

Groups in this project act on at most a handful of points (block positions
or points of a projective line), so full element enumeration is cheap and
no stabilizer-chain machinery is needed.  Structure names come from a
catalog keyed by (order, abelian flag, element-order spectrum); the catalog
is generated from explicit models of the small groups it covers, and
ambiguous keys fall back to a descriptive label.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import lcm

MAX_GROUP_ORDER = 10_000


def compose(a: tuple, b: tuple) -> tuple:
    """The permutation that applies a first, then b (images of 0..d-1)."""
    return tuple(map(b.__getitem__, a))


def _cycle_lengths(p: tuple) -> list[int]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        n, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        if n:
            lengths.append(n)
    return lengths


class PermGroup:
    """All elements of a permutation group, each an image tuple.

    Element orders come from cycle types, read once here; order, abelian
    flag, spectrum, cyclicity and semiregularity all derive from them.
    """

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = frozenset(elements)
        self._spectrum = Counter()
        self._semiregular = True
        for g in self.elements:
            lengths = _cycle_lengths(g)
            o = lcm(*lengths)
            self._spectrum[o] += 1
            if o > 1 and 1 in lengths:
                self._semiregular = False
        self._abelian = all(compose(a, b) == compose(b, a) for a, b in combinations(self.generators, 2))

    def order(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        return self._abelian

    def is_cyclic(self) -> bool:
        return self.order() in self._spectrum

    def is_semiregular(self) -> bool:
        """True when only the identity fixes a point."""
        return self._semiregular

    def element_order_spectrum(self) -> dict[int, int]:
        return dict(self._spectrum)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order()})"


def closure(generators, max_order: int = MAX_GROUP_ORDER) -> PermGroup:
    """Enumerate the group generated by the given permutation tuples."""
    degree = len(generators[0]) if generators else 1
    identity = tuple(range(degree))
    gens = list(dict.fromkeys(g for g in generators if g != identity))
    if any(len(g) != degree for g in gens):
        raise ValueError("generators have mixed degrees")
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in elements:
                    elements.add(c)
                    new.append(c)
                    if len(elements) > max_order:
                        raise ValueError(f"group order exceeds cap {max_order}")
        frontier = new
    return PermGroup(degree, gens, elements)


# ----------------------------------------------------------------------
# structure naming
#
# The catalog is built from abstract multiplication tables, which give the
# order and spectrum of each model group; whether a model is abelian is
# known from how it is built.


def _orders_from_mult(elems, mult, identity) -> Counter:
    spectrum = Counter()
    for x in elems:
        n, y = 1, x
        while y != identity:
            y = mult(y, x)
            n += 1
        spectrum[n] += 1
    return spectrum


def _cyclic_product(factors):
    elems = [()]
    for m in factors:
        elems = [e + (i,) for e in elems for i in range(m)]

    def mult(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, factors))

    return elems, mult, tuple(0 for _ in factors)


def _metacyclic(m, n, t):
    """C_m : C_n with the generator of C_n acting as x -> t*x on C_m."""
    assert pow(t, n, m) == 1
    elems = [(i, j) for i in range(m) for j in range(n)]

    def mult(a, b):
        i1, j1 = a
        i2, j2 = b
        return ((i1 + i2 * pow(t, j1, m)) % m, (j1 + j2) % n)

    return elems, mult, (0, 0)


def _dicyclic(m):
    """Dicyclic group of order 4m: <a,b | a^(2m)=1, b^2=a^m, bab^-1=a^-1>."""
    elems = [(i, j) for i in range(2 * m) for j in range(2)]

    def mult(x, y):
        i1, j1 = x
        i2, j2 = y
        i = i1 + (i2 if j1 == 0 else -i2)
        j = j1 + j2
        if j == 2:
            i += m
            j = 0
        return (i % (2 * m), j)

    return elems, mult, (0, 0)


def _sym(n, even_only=False):
    elems = [p for p in permutations(range(n)) if not even_only or _is_even(p)]

    def mult(a, b):
        return tuple(b[i] for i in a)

    return elems, mult, tuple(range(n))


def _is_even(p) -> bool:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2 == 0


def _direct(g1, g2):
    e1, m1, id1 = g1
    e2, m2, id2 = g2
    elems = [(a, b) for a in e1 for b in e2]

    def mult(x, y):
        return (m1(x[0], y[0]), m2(x[1], y[1]))

    return elems, mult, (id1, id2)


def _gen_dihedral(factors):
    """Generalized dihedral group of the abelian group C_f1 x C_f2 x ..."""
    ab, _, _ = _cyclic_product(factors)
    elems = [(a, s) for a in ab for s in range(2)]

    def mult(x, y):
        a1, s1 = x
        a2, s2 = y
        if s1:
            a2 = tuple((-v) % m for v, m in zip(a2, factors))
        a = tuple((u + v) % m for u, v, m in zip(a1, a2, factors))
        return (a, (s1 + s2) % 2)

    return elems, mult, (tuple(0 for _ in factors), 0)


def _sl23():
    """SL(2,3) as 2x2 matrices over GF(3) with determinant 1."""
    elems = [
        (a, b, c, d)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
        if (a * d - b * c) % 3 == 1
    ]

    def mult(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    return elems, mult, (1, 0, 0, 1)


def _invariant_factors(prime_powers) -> list[int]:
    by_prime: dict[int, list[int]] = {}
    for q in prime_powers:
        p = min(f for f in range(2, q + 1) if q % f == 0)
        by_prime.setdefault(p, []).append(q)
    for v in by_prime.values():
        v.sort(reverse=True)
    factors = []
    while any(by_prime.values()):
        f = 1
        for v in by_prime.values():
            if v:
                f *= v.pop(0)
        factors.append(f)
    return factors  # descending divisibility chain


def _abelian_name(prime_powers) -> str:
    return " x ".join(f"C{d}" for d in _invariant_factors(prime_powers))


def _abelian_models(max_order):
    """All abelian groups of order <= max_order as prime-power multisets."""
    pps = [q for q in range(2, max_order + 1) if _is_prime_power(q)]

    out = []

    def rec(start, product, chosen):
        if product > 1:
            out.append(tuple(chosen))
        for i in range(start, len(pps)):
            if product * pps[i] <= max_order:
                rec(i, product * pps[i], chosen + [pps[i]])

    rec(0, 1, [])
    return out


def _is_prime_power(q) -> bool:
    for p in range(2, q + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return False


def _build_catalog():
    abelian = [(_abelian_name(pps), _cyclic_product(pps)) for pps in _abelian_models(24)]
    # dihedral groups, named by their order
    nonabelian = [("S3" if m == 3 else f"D{2 * m}", _metacyclic(m, 2, m - 1)) for m in range(3, 13)]
    nonabelian += [
        ("Q8", _dicyclic(2)),
        ("C3 : C4", _dicyclic(3)),
        ("Q16", _dicyclic(4)),
        ("Dic5", _dicyclic(5)),
        ("Dic6", _dicyclic(6)),
        ("SD16", _metacyclic(8, 2, 3)),
        ("M16", _metacyclic(8, 2, 5)),
        ("C4 : C4", _metacyclic(4, 4, 3)),
        ("C5 : C4", _metacyclic(5, 4, 2)),  # Frobenius group of order 20
        ("C7 : C3", _metacyclic(7, 3, 2)),
        ("C3 : C8", _metacyclic(3, 8, 2)),
        ("A4", _sym(4, even_only=True)),
        ("S4", _sym(4)),
        ("A5", _sym(5, even_only=True)),
        ("S5", _sym(5)),
        ("(C3 x C3) : C2", _gen_dihedral((3, 3))),
        ("C3 x S3", _direct(_cyclic_product((3,)), _metacyclic(3, 2, 2))),
        ("C2 x D8", _direct(_cyclic_product((2,)), _metacyclic(4, 2, 3))),
        ("C2 x Q8", _direct(_cyclic_product((2,)), _dicyclic(2))),
        ("C2 x A4", _direct(_cyclic_product((2,)), _sym(4, even_only=True))),
        ("C4 x S3", _direct(_cyclic_product((4,)), _metacyclic(3, 2, 2))),
        ("C2 x C2 x S3", _direct(_cyclic_product((2, 2)), _metacyclic(3, 2, 2))),
        ("C2 x (C3 : C4)", _direct(_cyclic_product((2,)), _dicyclic(3))),
        ("C3 x D8", _direct(_cyclic_product((3,)), _metacyclic(4, 2, 3))),
        ("C3 x Q8", _direct(_cyclic_product((3,)), _dicyclic(2))),
        ("SL(2,3)", _sl23()),
    ]

    catalog: dict[tuple, str | None] = {}
    for is_abelian, models in ((True, abelian), (False, nonabelian)):
        for name, (elems, mult, identity) in models:
            spectrum = _orders_from_mult(elems, mult, identity)
            key = (len(elems), is_abelian, frozenset(spectrum.items()))
            if key in catalog and catalog[key] != name:
                catalog[key] = None  # ambiguous; force the fallback label
            else:
                catalog[key] = name
    return catalog


_CATALOG: dict | None = None


def _catalog():
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def structure_name(group: PermGroup) -> str:
    """Human-readable isomorphism-type label, e.g. "C5", "D10", "C5 : C4".

    Falls back to a descriptive label when the (order, abelian, spectrum)
    key does not identify a unique catalog entry.
    """
    n = group.order()
    if n == 1:
        return "1"
    spectrum = group.element_order_spectrum()
    key = (n, group.is_abelian(), frozenset(spectrum.items()))
    name = _catalog().get(key)
    if name:
        return name
    spec_str = ", ".join(f"{o}:{c}" for o, c in sorted(spectrum.items()))
    return f"G(order={n}, spectrum={{{spec_str}}})"

