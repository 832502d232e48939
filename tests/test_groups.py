import functools
import hashlib
import random
from collections import Counter

import pytest

from unitals import groups
from unitals.groups import PermGroup, closure, compose, relative_to_first, structure_name


def cyc(images):
    return tuple(images)


def inverse(p):
    inv = [0] * len(p)
    for i, im in enumerate(p):
        inv[im] = i
    return tuple(inv)


def test_relative_to_first_puts_identity_first():
    """m0^-1 m for each m, on shuffled lists of bijections 0..d-1 -> 0..d-1."""
    rng = random.Random(7)
    for d in (1, 2, 5, 9):
        maps = [tuple(rng.sample(range(d), d)) for _ in range(6)]
        for _ in range(5):
            rng.shuffle(maps)
            rel = relative_to_first(maps)
            assert rel[0] == tuple(range(d))
            assert rel == [compose(m, inverse(maps[0])) for m in maps]


def test_closure_c5():
    g = closure([cyc((1, 2, 3, 4, 0))])
    assert g.order() == 5
    assert g.is_cyclic()
    assert g.is_semiregular()


def test_closure_s5():
    g = closure([cyc((1, 0, 2, 3, 4)), cyc((1, 2, 3, 4, 0))])
    assert g.order() == 120
    assert structure_name(g) == "S5"


def test_closure_empty_generators():
    g = closure([tuple(range(4))])
    assert g.order() == 1
    assert structure_name(g) == "1"


def test_closure_refuses_a_generator_that_is_not_a_permutation():
    """A repeated image, an image out of range and a negative image each
    leave the tuple short of a permutation of range(degree)."""
    for bad in [(0, 0, 1), (0, 1, 3), (0, 1, -1)]:
        with pytest.raises(ValueError, match="not a permutation"):
            closure([bad])
        with pytest.raises(ValueError, match="not a permutation"):
            closure([cyc((1, 2, 0)), bad])


def test_closure_is_closed():
    g = closure([cyc((1, 2, 0, 4, 3)), cyc((0, 2, 1, 3, 4))])
    rng = random.Random(3)
    els = list(g.elements)
    for _ in range(50):
        a, b = rng.choice(els), rng.choice(els)
        assert compose(a, b) in g.elements


def test_closure_size_cap(monkeypatch):
    monkeypatch.setattr(groups, "MAX_GROUP_ORDER", 100)
    with pytest.raises(groups.GroupTooLarge, match="cap"):
        closure([cyc((1, 0, 2, 3, 4, 5, 6, 7)), cyc((1, 2, 3, 4, 5, 6, 7, 0))])


def test_generated_is_none_past_its_limit():
    """Past half of S5 the listing stops: the generators make all of it.
    At index 2 exactly half is listed, a proper subgroup.  The trivial group
    passes a limit of 0 with its identity."""
    assert groups.generated(5, [cyc((0, 2, 1, 3, 4)), cyc((1, 2, 3, 4, 0))], 60) is None
    a5 = groups.generated(5, [cyc((1, 2, 0, 3, 4)), cyc((1, 2, 3, 4, 0))], 60)
    assert a5.elements == closure([cyc((1, 2, 0, 3, 4)), cyc((1, 2, 3, 4, 0))]).elements
    assert a5.order() == 60 and structure_name(a5) == "A5"
    assert groups.generated(5, [tuple(range(5))], 0) is None
    assert groups.generated(5, [], 0) is None


def test_s3_not_semiregular():
    g = closure([cyc((1, 0, 2)), cyc((1, 2, 0))])
    assert structure_name(g) == "S3"
    assert not g.is_semiregular()


def test_semiregular_implies_order_divides_degree():
    # regular C5 and a non-transitive C2 x C2 acting freely on 4 points
    g1 = closure([cyc((1, 2, 3, 4, 0))])
    assert g1.is_semiregular() and g1.degree % g1.order() == 0
    g2 = closure([cyc((1, 0, 3, 2))])
    assert g2.is_semiregular() and g2.degree % g2.order() == 0


def test_element_order_spectrum_c4():
    g = closure([cyc((1, 2, 3, 0))])
    assert g.element_order_spectrum() == {1: 1, 2: 1, 4: 2}


def test_element_order_spectrum_d10():
    g = closure([cyc((1, 2, 3, 4, 0)), cyc((5 - x) % 5 for x in range(5))])
    assert g.order() == 10
    assert g.element_order_spectrum() == {1: 1, 2: 5, 5: 4}
    assert structure_name(g) == "D10"


def test_element_order_spectrum_a5():
    g = closure([cyc((1, 2, 0, 3, 4)), cyc((1, 2, 3, 4, 0))])
    assert g.order() == 60
    assert g.element_order_spectrum() == {1: 1, 2: 15, 3: 20, 5: 24}
    assert structure_name(g) == "A5"


def test_structure_name_frobenius20():
    # affine maps x -> ax + b over GF(5): the unique order-20 group with
    # spectrum {1:1, 2:5, 4:10, 5:4}
    g = closure([cyc((x + 1) % 5 for x in range(5)), cyc((2 * x) % 5 for x in range(5))])
    assert g.order() == 20
    assert g.element_order_spectrum() == {1: 1, 2: 5, 4: 10, 5: 4}
    assert structure_name(g) == "C5 : C4"


def test_structure_name_klein():
    g = closure([cyc((1, 0, 3, 2)), cyc((2, 3, 0, 1))])
    assert g.element_order_spectrum() == {1: 1, 2: 3}
    assert structure_name(g) == "C2 x C2"


def test_structure_name_relabeling_invariant():
    rng = random.Random(11)
    gens = [cyc((1, 2, 3, 4, 0)), cyc((2 * x) % 5 for x in range(5))]
    base = structure_name(closure(gens))
    for _ in range(5):
        images = list(range(5))
        rng.shuffle(images)
        s = tuple(images)
        conj = [compose(compose(inverse(s), g), s) for g in gens]
        assert structure_name(closure(conj)) == base


def test_structure_name_catalog_sample():
    # abelian naming merges coprime factors: C3 x C2 is cyclic of order 6
    g = closure([cyc((1, 2, 0, 3, 4)), cyc((0, 1, 2, 4, 3))])
    assert g.order() == 6
    assert structure_name(g) == "C6"
    s4 = closure([cyc((1, 0, 2, 3)), cyc((1, 2, 3, 0))])
    assert structure_name(s4) == "S4"


def test_structure_name_catalog_is_pinned():
    # keys and names as first recorded, when each model's abelian flag was
    # computed from its multiplication table; a misflagged model changes them.
    # The catalog is built per order; its union over the orders is pinned.
    catalog = {}
    for n in sorted({n for n, _, _ in groups._models()}):
        catalog.update(groups._catalog(n))
    assert len(catalog) == 71
    assert [name for name in catalog.values() if name is None] == [None]
    items = sorted((n, abelian, tuple(sorted(spectrum)), name) for (n, abelian, spectrum), name in catalog.items())
    digest = hashlib.sha256(repr(items).encode()).hexdigest()
    assert digest == "25d8a1f2f56443dae88042d4370e61d578435fa777ec25018d1c01e9eac3823a"


def test_catalog_models_have_their_stated_order():
    for n, name, build in groups._models():
        _, gens = build()
        assert closure(gens).order() == n, name


def test_naming_c5_builds_only_order_5_models(monkeypatch):
    """From a cold catalog, naming C5 builds the one model of order 5."""
    c5 = closure([cyc((1, 2, 3, 4, 0))])
    monkeypatch.setattr(groups, "_catalog", functools.cache(groups._catalog.__wrapped__))
    built = []
    models = [(n, name, lambda n=n, build=build: built.append(n) or build()) for n, name, build in groups._models()]
    monkeypatch.setattr(groups, "_models", lambda: models)
    assert structure_name(c5) == "C5"
    assert built == [5]


def test_structure_name_of_every_subgroup_of_s5():
    # every subgroup of S5 is generated by two elements, and has a conjugate
    # in which the first is the representative of its cycle type
    s5 = sorted(closure([cyc((1, 0, 2, 3, 4)), cyc((1, 2, 3, 4, 0))]).elements)
    reps = [
        (0, 1, 2, 3, 4), (1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (1, 2, 3, 0, 4),
        (1, 2, 3, 4, 0), (1, 0, 3, 2, 4), (1, 2, 0, 4, 3),
    ]
    found = {}
    for a in reps:
        for b in s5:
            found.setdefault(closure([a, b]).elements, (a, b))
    subgroups = {}
    for elements, gens in found.items():
        if elements in subgroups:
            continue  # its conjugacy class is already in
        for s in s5:
            conj = lambda p: compose(compose(inverse(s), p), s)
            subgroups.setdefault(frozenset(map(conj, elements)), tuple(map(conj, gens)))
    assert len(subgroups) == 156
    names = Counter(structure_name(PermGroup(5, gens, elements)) for elements, gens in subgroups.items())
    assert names == {
        "1": 1, "C2": 25, "C3": 10, "C4": 15, "C2 x C2": 20, "C5": 6,
        "S3": 20, "C6": 10, "D8": 15, "D10": 6,
        "A4": 5, "D12": 10, "C5 : C4": 6, "S4": 5, "A5": 1, "S5": 1,
    }


def test_structure_name_fallback_is_descriptive():
    # Q8 x C2 and C4 : C4 share (order, abelian, spectrum): the catalog
    # must refuse to guess, and the label tells them apart by their 2 and 3 squares
    table = _q8_table()
    rows = [
        tuple(table[a1][a2] * 2 + (s1 + s2) % 2 for a2 in range(8) for s2 in range(2))
        for a1 in range(8)
        for s1 in range(2)
    ]
    g = PermGroup(16, rows, rows)  # the left translations of Q8 x C2
    assert g.order() == 16
    assert structure_name(g).startswith("G(order=16")
    (c4_by_c4,) = (closure(build()[1]) for _, name, build in groups._models() if name == "C4 : C4")
    assert structure_name(g).endswith("squares=2)") and structure_name(c4_by_c4).endswith("squares=3)")


def _right_regular(elements, mul, generators):
    """The group of the right translations x -> x g by the generators, on the positions of `elements`."""
    index = {x: i for i, x in enumerate(elements)}
    return closure([tuple(index[mul(x, g)] for x in elements) for g in generators])


def test_structure_name_tells_the_pauli_group_from_c2_squared_by_c4():
    """C2^2 : C4, where k in Z4 swaps the coordinates of v in F2^2 when k is
    odd, and the Pauli group <X, Y, Z> have centres C2 x C2 and C4, so they
    are not isomorphic; both have order 16 and element orders {1:1, 2:7, 4:8}."""

    def semidirect(a, b):
        (v, k), (w, m) = a, b
        w = w[::-1] if k % 2 else w
        return (v[0] ^ w[0], v[1] ^ w[1]), (k + m) % 4

    def matmul(a, b):
        return a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3], a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]

    pairs = [((x, y), k) for x in range(2) for y in range(2) for k in range(4)]
    c2_squared_by_c4 = _right_regular(pairs, semidirect, [((0, 0), 1), ((1, 0), 0)])
    paulis = [(0, 1, 1, 0), (0, -1j, 1j, 0), (1, 0, 0, -1)]
    pauli_group = [(1, 0, 0, 1)]
    for a in pauli_group:  # grows while it is read
        for c in (matmul(a, g) for g in paulis):
            if c not in pauli_group:
                pauli_group.append(c)
    pauli = _right_regular(pauli_group, matmul, paulis)
    assert structure_name(c2_squared_by_c4) != structure_name(pauli)


def test_structure_name_tells_c3_cubed_from_the_heisenberg_group():
    """C3^3, from three disjoint 3-cycles, and the Heisenberg group, from the
    two translations of F3^2 and the shear (x, y) -> (x + y, y), both act on
    9 points with order 27 and element orders {1:1, 3:26}; only C3^3 is abelian."""
    c3_cubed = closure([(1, 2, 0, 3, 4, 5, 6, 7, 8), (0, 1, 2, 4, 5, 3, 6, 7, 8), (0, 1, 2, 3, 4, 5, 7, 8, 6)])
    points = [(x, y) for x in range(3) for y in range(3)]
    acting = lambda f: tuple(points.index(f(x, y)) for x, y in points)
    heisenberg = closure([
        acting(lambda x, y: ((x + 1) % 3, y)), acting(lambda x, y: (x, (y + 1) % 3)), acting(lambda x, y: ((x + y) % 3, y)),
    ])
    assert c3_cubed.order() == heisenberg.order() == 27
    assert c3_cubed.element_order_spectrum() == heisenberg.element_order_spectrum() == {1: 1, 3: 26}
    assert structure_name(c3_cubed) != structure_name(heisenberg)


def _q8_table():
    # quaternion units 1,-1,i,-i,j,-j,k,-k encoded 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul = {}
    sign = lambda s: 0 if s > 0 else 1
    base = {"1": 0, "i": 2, "j": 4, "k": 6}

    def code(sym, s):
        return base[sym] + sign(s)

    rules = {
        ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
        ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1),
        ("k", "i"): ("j", 1), ("i", "k"): ("j", -1),
    }
    table = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            sa, sb = (-1) ** (a % 2), (-1) ** (b % 2)
            na, nb = names[a - a % 2][-1:], names[b - b % 2][-1:]
            na = "1" if na == "1" else na
            if na == "1":
                sym, s = nb, 1
            elif nb == "1":
                sym, s = na, 1
            else:
                sym, s = rules[(na, nb)]
            table[a][b] = code(sym, sa * sb * s)
    return table

