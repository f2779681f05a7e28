import random

import pytest
from hypothesis import given, settings, strategies as st

from trellislab.galois import (
    GF2,
    GF3,
    FieldSpec,
    Mat,
    Subspace,
    complement,
    cross_section,
    kernel,
    lattice,
    orthogonal,
    project,
    quotient_map,
    rref,
    solve_particular,
)

import oracles


def test_field_requires_prime():
    FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_mat_rejects_unreduced_entries():
    with pytest.raises(ValueError):
        Mat(GF2, 2, ((2, 0),))


def test_rref_examples():
    assert rref(Mat.from_rows(GF2, 2, [[1, 1], [0, 1]])).entries == ((1, 0), (0, 1))
    assert rref(Mat.from_rows(GF2, 3, [[1, 1, 0], [1, 1, 0]])).entries == ((1, 1, 0),)
    # over GF(3) the second row is twice the first
    assert rref(Mat.from_rows(GF3, 2, [[2, 1], [1, 2]])).entries == ((1, 2),)
    s = Subspace.span(GF3, 3, [[1, 0, 2], [0, 1, 1]])
    assert s.contains([2, 1, 2])  # 2*(1,0,2) + 1*(0,1,1)
    assert not s.contains([1, 1, 1])


def test_rref_idempotent_random():
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        field = FieldSpec(p)
        n = rng.randint(1, 6)
        m = Mat.from_rows(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, 5))])
        r = rref(m)
        assert rref(r) == r


def test_kernel_examples():
    assert kernel(Mat.from_rows(GF2, 2, [[1, 1]])) == Subspace.span(GF2, 2, [[1, 1]])
    assert kernel(Mat.identity(GF2, 3)).is_zero()
    assert kernel(Mat.from_rows(GF2, 3, [[1, 0, 1], [0, 1, 1]])) == Subspace.span(
        GF2, 3, [[1, 1, 1]]
    )


def test_kernel_matches_enumeration():
    rng = random.Random(2)
    for _ in range(40):
        p = rng.choice((2, 3))
        field = FieldSpec(p)
        n = rng.randint(1, 5)
        m = Mat.from_rows(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, 4))])
        got = set(kernel(m).vectors())
        want = {
            v
            for v in oracles.all_vectors(p, n)
            if all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in m.entries)
        }
        assert got == want


def test_orthogonal_examples():
    s = Subspace.span(GF2, 3, [[1, 1, 1]])
    assert orthogonal(s) == Subspace.span(GF2, 3, [[1, 1, 0], [0, 1, 1]])
    assert orthogonal(Subspace.zero(GF2, 4)).is_full()
    assert orthogonal(Subspace.full(GF2, 4)).is_zero()


def test_orthogonal_involution_and_dims():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        field = FieldSpec(p)
        n = rng.randint(0, 8)
        s = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))])
        perp = orthogonal(s)
        assert s.dim + perp.dim == n
        assert orthogonal(perp) == s


def test_orthogonal_matches_enumeration():
    rng = random.Random(4)
    for _ in range(25):
        p = rng.choice((2, 3))
        field = FieldSpec(p)
        n = rng.randint(1, 5)
        s = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))])
        want = oracles.orthogonal_set(p, n, oracles.subspace_set(s))
        assert set(orthogonal(s).vectors()) == want


def test_lattice_examples():
    a = Subspace.span(GF2, 2, [[1, 0]])
    assert lattice(a, a) == (a, a)
    b = Subspace.span(GF2, 2, [[0, 1]])
    total, inter = lattice(a, b)
    assert total.is_full() and inter.is_zero()
    total, inter = lattice(
        Subspace.span(GF2, 3, [[1, 0, 1]]), Subspace.span(GF2, 3, [[0, 1, 1]])
    )
    assert total.dim == 2 and inter.dim == 0


def test_lattice_dimension_formula_and_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice((2, 3))
        field = FieldSpec(p)
        n = rng.randint(0, 6)
        a = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))])
        b = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))])
        total, inter = lattice(a, b)
        assert a.dim + b.dim == total.dim + inter.dim
        if n <= 4:
            sa, sb = oracles.subspace_set(a), oracles.subspace_set(b)
            assert set(inter.vectors()) == sa & sb
            stacked = list(a.basis.entries) + list(b.basis.entries)
            if stacked:
                assert oracles.subspace_set(total) == oracles.span_set(p, stacked)
            else:
                assert total.is_zero()


def test_lattice_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        lattice(Subspace.zero(GF2, 2), Subspace.zero(GF2, 3))


def test_complement_examples():
    assert complement(Subspace.zero(GF2, 2)).is_full()
    # the first standard unit vector is independent of (1,1) and is taken
    assert complement(Subspace.span(GF2, 2, [[1, 1]])) == Subspace.span(GF2, 2, [[1, 0]])
    assert complement(Subspace.full(GF2, 3)).is_zero()


def test_complement_properties():
    rng = random.Random(6)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        field = FieldSpec(p)
        n = rng.randint(0, 6)
        s = Subspace.span(field, n, [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(0, n))])
        c = complement(s)
        total, inter = lattice(c, s)
        assert inter.is_zero()
        assert total.is_full()
        assert all(sorted(row) == [0] * (n - 1) + [1] for row in c.basis.entries)


def test_complement_requires_containment():
    # the enclosing space is always the whole ambient space, which contains
    # every subspace; a narrower one can no longer be passed
    s = Subspace.span(GF2, 2, [[1, 0]])
    with pytest.raises(TypeError):
        complement(s, Subspace.span(GF2, 2, [[0, 1]]))
    assert complement(s) == Subspace.span(GF2, 2, [[0, 1]])


@st.composite
def small_subspaces(draw, bound: int = 729) -> Subspace:
    """A span of drawn rows in GF(p)^n with p^n <= bound."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(0, max(k for k in range(7) if p**k <= bound)))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    return Subspace.span(FieldSpec(p), n, draw(st.lists(row, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(small_subspaces(bound=7**6))
def test_complement_matches_the_greedy_rank_loop(s):
    kept = oracles.greedy_complement_columns(s)
    n = s.ambient_dim
    assert complement(s) == Subspace.span(s.field, n, [[int(k == c) for k in range(n)] for c in kept])


@settings(max_examples=200, deadline=None)
@given(small_subspaces())
def test_quotient_map_matches_brute_force(s):
    q = quotient_map(s)
    assert (q.rows, q.cols) == (s.ambient_dim, s.ambient_dim - s.dim)
    assert oracles.is_projection_along(s, oracles.greedy_complement_columns(s), q)


def test_projection_and_cross_section():
    s = Subspace.span(GF2, 3, [[1, 0, 1], [0, 1, 1]])
    assert project(s, [0, 1]).is_full()
    cs = cross_section(s, [0, 1])
    # members of s vanishing on the last coordinate: only 110 qualifies
    assert cs == Subspace.span(GF2, 2, [[1, 1]])


def test_cross_section_matches_enumeration():
    """One elimination with the other columns first gives the members that
    vanish off the listed columns, in the listed order."""
    rng = random.Random(77)
    for field in (GF2, GF3):
        for _ in range(300):
            n = rng.randrange(0, 7)
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(rng.randrange(0, n + 2))]
            s = Subspace.span(field, n, rows)
            cols = rng.sample(range(n), rng.randrange(0, n + 1))
            other = [c for c in range(n) if c not in cols]
            want = {tuple(v[c] for c in cols) for v in s.vectors() if not any(v[c] for c in other)}
            assert set(cross_section(s, cols).vectors()) == want


def test_lattice_matches_enumeration():
    rng = random.Random(78)
    for field in (GF2, GF3):
        for _ in range(150):
            n = rng.randrange(0, 5)
            a, b = (
                Subspace.span(field, n, [[rng.randrange(field.p) for _ in range(n)] for _ in range(rng.randrange(0, n + 2))])
                for _ in range(2)
            )
            total, inter = lattice(a, b)
            va, vb = set(a.vectors()), set(b.vectors())
            assert set(inter.vectors()) == va & vb
            assert set(total.vectors()) == {tuple((x + y) % field.p for x, y in zip(u, v)) for u in va for v in vb}


def test_orthogonal_is_kept_with_the_subspace():
    s = Subspace.span(GF3, 4, [[1, 2, 0, 1], [0, 1, 1, 2]])
    assert orthogonal(s) is orthogonal(s)
    assert orthogonal(s) == kernel(s.basis)
    assert orthogonal(s) == orthogonal(Subspace.span(GF3, 4, [[1, 2, 0, 1], [0, 1, 1, 2]]))


def test_canonical_check_matches_rref_definition():
    # the reference definition: a basis is canonical exactly when rref leaves
    # it unchanged; candidates are random, reduced, and reduced then spoiled
    rng = random.Random(79)
    seen = {True: 0, False: 0}
    for field in (GF2, GF3, FieldSpec(5)):
        for _ in range(300):
            n = rng.randrange(0, 6)
            rows = [[rng.randrange(field.p) * (rng.random() < 0.4) for _ in range(n)] for _ in range(rng.randrange(0, n + 2))]
            m = Mat.from_rows(field, n, rows)
            reduced = [list(row) for row in rref(m).entries]
            spoiled = [row[:] for row in reduced]
            if spoiled and n:
                spoiled[rng.randrange(len(spoiled))][rng.randrange(n)] = rng.randrange(field.p)
            cands = [Mat.from_rows(field, n, c) for c in (rows, reduced, spoiled, reduced[::-1], reduced + [[0] * n])]
            cands.append(Mat(field, n, tuple(reduced)))  # rows held as lists are not rref's tuples
            for cand in cands:
                canonical = rref(cand).entries == cand.entries
                seen[canonical] += 1
                if canonical:
                    assert Subspace(field, n, cand).basis == cand
                else:
                    with pytest.raises(ValueError, match="basis is not in canonical reduced form"):
                        Subspace(field, n, cand)
    assert min(seen.values()) > 1000


def test_solve_particular():
    x = solve_particular(Mat.from_rows(GF2, 2, [[1, 1], [0, 1]]), [1, 1])
    assert x == (0, 1)
    assert solve_particular(Mat.from_rows(GF2, 2, [[1, 1], [1, 1]]), [1, 0]) is None
