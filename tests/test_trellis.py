import random
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from trellislab.galois import GF2, GF3, FieldSpec, Mat, Subspace, orthogonal, rank
from trellislab.trellis import (
    Generator,
    Span,
    Trellis,
    behavior,
    dualize,
    is_isomorphic,
    product,
    realized_code,
    time_reversed,
    validate,
)
from conftest import trellises
import oracles


def gen(word: str, start: int, length: int, m: int) -> Generator:
    return Generator(tuple(int(c) for c in word), Span(start, length, m))


def unit_dims(m: int) -> tuple[int, ...]:
    return tuple([1] * m)


def zero_trellis(m: int = 3) -> Trellis:
    return Trellis(
        GF2, m, unit_dims(m), tuple([0] * m), tuple(Subspace.zero(GF2, 1) for _ in range(m))
    )


# --- spans ------------------------------------------------------------------

def test_span_conventions():
    whole = Span(1, 3, 3)
    assert whole.times() == [1, 2, 0]
    assert whole.interior() == [2, 0]
    empty = whole.complement()
    assert empty.length == 0 and empty.start == 1
    assert empty.complement() == whole
    with pytest.raises(ValueError):
        Span(0, 4, 3)
    with pytest.raises(ValueError):
        Span(3, 1, 3)


# --- validation --------------------------------------------------------------

def test_validate_examples(figures):
    for t in figures.values():
        assert validate(t) == []
    with pytest.raises(ValueError, match="constraint 0: ambient dim 4, expected 3$"):
        Trellis(GF2, 2, (1, 1), (1, 1), (Subspace.zero(GF2, 4), Subspace.zero(GF2, 3)))
    with pytest.raises(ValueError):
        Trellis(GF2, 0, (), (), ())


# --- elementary trellises: products of one generator -------------------------

def test_elementary_examples():
    e = product(GF2, [gen("101", 0, 3, 3)], unit_dims(3))
    assert e.state_dims == (0, 1, 1)
    assert oracles.enumerate_code(e) == {(0, 0, 0), (1, 0, 1)}
    e2 = product(GF2, [gen("110", 1, 3, 3)], unit_dims(3))
    assert e2.state_dims == (1, 0, 1)
    assert oracles.enumerate_code(e2) == {(0, 0, 0), (1, 1, 0)}
    whole = product(GF2, [gen("111", 1, 3, 3)], unit_dims(3))
    assert whole.state_dims == (1, 0, 1)
    # span of full length: all states nonzero except the start
    full = product(GF2, [gen("101", 2, 3, 3)], unit_dims(3))
    assert full.state_dims == (1, 1, 0)


def test_elementary_rejects_bad_spans():
    with pytest.raises(ValueError, match="support at time 2 outside its span"):
        product(GF2, [gen("101", 0, 2, 3)], unit_dims(3))
    with pytest.raises(ValueError, match="word must be nonzero"):
        product(GF2, [gen("000", 0, 3, 3)], unit_dims(3))
    with pytest.raises(ValueError, match="span must be nonempty"):
        product(GF2, [Generator((1, 0, 1), Span(0, 0, 3))], unit_dims(3))
    with pytest.raises(ValueError, match="word length does not match symbol dims"):
        product(GF2, [gen("101", 0, 3, 3)], (1, 1, 2))
    # the first bad generator is reported, after any good ones
    with pytest.raises(ValueError, match="word must be nonzero"):
        product(GF2, [gen("110", 0, 2, 3), gen("000", 0, 3, 3), gen("101", 0, 2, 3)], unit_dims(3))


def test_elementary_behavior_is_one_dimensional(figures):
    for word, start, length in (("101", 0, 3), ("110", 1, 3), ("011", 1, 2)):
        e = product(GF2, [gen(word, start, length, 3)], unit_dims(3))
        assert behavior(e).dim == 1
        assert len(oracles.enumerate_behavior(e)) == 2


# --- products ----------------------------------------------------------------

@st.composite
def generator_sets(draw):
    """A field, symbol dims and 1 to 4 generators, each word drawn freely
    inside its span (so it may be zero or dependent on the others)."""
    field = FieldSpec(draw(st.sampled_from((2, 3, 5, 7))))
    m = draw(st.integers(1, 8))
    dims = tuple(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        span = Span(draw(st.integers(0, m - 1)), draw(st.integers(1, m)), m)
        entry = st.integers(0, field.p - 1)
        word = [draw(entry) if span.covers(i) else 0 for i, d in enumerate(dims) for _ in range(d)]
        gens.append(Generator(tuple(word), span))
    return field, dims, gens


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_product_matches_enumeration(drawn):
    """With independent words the product's trajectories are the p^k
    combinations of the generators' paths: its code is their span, and S_i
    has one coordinate per span with i in its interior."""
    field, dims, gens = drawn
    p, k, words = field.p, len(gens), [g.word for g in gens]
    assume(p**k <= 343 and len(oracles.span_set(p, words)) == p**k)
    t = product(field, gens, dims)
    trajectories = oracles.enumerate_behavior(t)
    assert {a for a, _ in trajectories} == oracles.span_set(p, words)  # oracles.enumerate_code
    assert len(trajectories) == p**k
    assert t.state_dims == tuple(sum(i in g.span.interior() for g in gens) for i in range(len(dims)))


def test_product_realizes_sum_code(figures):
    fig1a = figures["fig1a"]
    assert fig1a.state_dims == (1, 1, 2)
    want = {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert set(realized_code(fig1a).vectors()) == want
    assert oracles.enumerate_code(fig1a) == want
    fig3a = figures["fig3a"]
    assert realized_code(fig3a) == Subspace.span(
        GF2, 5, [[0, 1, 1, 1, 0], [1, 0, 0, 1, 0], [0, 1, 1, 0, 1]]
    )


def test_product_shape_mismatch():
    # every span must lie on the axis of the symbol dims
    with pytest.raises(ValueError, match="symbol dims must have length m"):
        product(GF2, [gen("101", 0, 3, 3), gen("1011", 0, 4, 4)], unit_dims(3))
    with pytest.raises(ValueError, match="symbol dims must have length m"):
        product(GF2, [gen("101", 0, 3, 3)], ())
    with pytest.raises(ValueError, match="product of no generators"):
        product(GF2, [], unit_dims(3))


# --- behavior ----------------------------------------------------------------

def test_behavior_dims(figures):
    assert behavior(figures["fig1a"]).dim == 2
    assert behavior(figures["fig3a"]).dim == 3
    assert behavior(zero_trellis()).dim == 0


def test_behavior_matches_enumeration(figures):
    for name in ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b"):
        t = figures[name]
        got = set()
        b = behavior(t)
        for v in b.vectors():
            na = t.symbol_total()
            got.add((v[:na], v[na:]))
        assert got == oracles.enumerate_behavior(t)


def test_realized_code_examples(figures):
    assert set(realized_code(figures["fig1b"]).vectors()) == {(0, 0, 0), (1, 1, 1)}
    assert realized_code(zero_trellis()).is_zero()


# --- duality -----------------------------------------------------------------

def test_dualize_examples(figures):
    fig1a = figures["fig1a"]
    fig1b = figures["fig1b"]
    assert dualize(fig1a) == fig1b
    assert dualize(fig1b) == fig1a  # exact involution
    assert fig1b.state_dims == fig1a.state_dims
    iso = is_isomorphic(fig1a, fig1b)
    assert iso.isomorphic is False


def test_dual_constraint_dimension_formula(random_set):
    for t in random_set[:80]:
        td = dualize(t)
        for i in range(t.m):
            amb = t.constraint_ambient(i)
            assert td.constraints[i].dim == amb - t.constraints[i].dim


def test_dual_realizes_orthogonal_code(random_set):
    for t in random_set:
        assert realized_code(dualize(t)) == orthogonal(realized_code(t))


def test_dualize_gf3_sign_inversion():
    # one-dimensional loop over GF(3) with a state-linked symbol
    c = Subspace.span(GF3, 3, [[1, 1, 1]])
    t = Trellis(GF3, 1, (1,), (1,), (c,))
    td = dualize(t)
    assert dualize(td) == t
    assert realized_code(td) == orthogonal(realized_code(t))
    # over GF(2) the sign map is the identity: dual constraints are plain
    # orthogonal complements
    t2 = Trellis(GF2, 1, (1,), (1,), (Subspace.span(GF2, 3, [[1, 1, 1]]),))
    assert dualize(t2).constraints[0] == orthogonal(t2.constraints[0])


# --- isomorphism -------------------------------------------------------------

def test_isomorphic_to_self_with_identity(figures):
    t = figures["fig3a"]
    iso = is_isomorphic(t, t)
    assert iso.isomorphic is True
    for i, mat in enumerate(iso.witness):
        assert mat == Mat.identity(GF2, t.state_dims[i])


def test_isomorphic_after_recoordinatization(figures, rng):
    t = figures["fig1a"]
    maps = []
    for i in range(t.m):
        n = t.state_dims[i]
        while True:
            mat = Mat.from_rows(GF2, n, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
            from trellislab.galois import rank

            if rank(mat) == n:
                maps.append(mat)
                break
    constraints = []
    for i in range(t.m):
        nxt = (i + 1) % t.m
        rows = []
        for b in t.constraints[i].basis.entries:
            dl, da = t.state_dims[i], t.symbol_dims[i]
            left = list(b[:dl])
            sym = list(b[dl:dl + da])
            right = list(b[dl + da:])
            lmap = [sum(left[k] * maps[i].entries[k][j] for k in range(dl)) % 2 for j in range(dl)]
            rmap = [
                sum(right[k] * maps[nxt].entries[k][j] for k in range(t.state_dims[nxt])) % 2
                for j in range(t.state_dims[nxt])
            ]
            rows.append(lmap + sym + rmap)
        constraints.append(Subspace.span(GF2, t.constraint_ambient(i), rows))
    other = Trellis(GF2, t.m, t.symbol_dims, t.state_dims, tuple(constraints))
    assert is_isomorphic(t, other).isomorphic is True


def test_isomorphism_reports_undecided_above_cap():
    n = 4
    c = Subspace.full(GF2, n + 1 + n)
    t = Trellis(GF2, 1, (1,), (n,), (c,))
    result = is_isomorphic(t, t)
    assert result.isomorphic is None
    assert "cap" in result.note


def test_isomorphism_requires_matching_shapes(figures):
    with pytest.raises(ValueError):
        is_isomorphic(figures["fig1a"], figures["fig3a"])


def recoordinatized(t: Trellis, maps) -> Trellis:
    """t with every state x of S_i replaced by x maps[i] (a matrix as row
    tuples), in both constraints that S_i touches."""
    p, m = t.field.p, t.m
    constraints = []
    for i in range(m):
        rows = []
        for row in t.constraints[i].basis.entries:
            x, s, y = t.split(i, row)
            rows.append(oracles.times_matrix(p, x, maps[i]) + s + oracles.times_matrix(p, y, maps[(i + 1) % m]))
        constraints.append(Subspace.span(t.field, t.constraint_ambient(i), rows))
    return Trellis(t.field, m, t.symbol_dims, t.state_dims, tuple(constraints))


def assert_witness(a: Trellis, b: Trellis, iso) -> None:
    """A True verdict's witness is invertible and maps a's constraints onto b's."""
    assert iso.isomorphic is True
    assert [(w.rows, rank(w)) for w in iso.witness] == [(d, d) for d in a.state_dims]
    assert recoordinatized(a, [w.entries for w in iso.witness]) == b


def drawn_constraint(data, field: FieldSpec, n: int, dim: int | None = None) -> Subspace:
    """A drawn subspace of GF(p)^n: the span of `dim` rows, or of up to n."""
    row = st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n)
    rows = st.lists(row, max_size=n) if dim is None else st.lists(row, min_size=dim, max_size=dim)
    return Subspace.span(field, n, data.draw(rows))


@settings(max_examples=150, deadline=None)
@given(trellises(), st.data())
def test_isomorphism_matches_brute_force_on_any_trellis(t, data):
    # sized for the oracle, which tries every tuple of state maps
    p = t.field.p
    assume(prod(p ** (d * d) for d in t.state_dims) <= 1024)
    kind = data.draw(st.sampled_from(("copy", "changed copy", "pair")))
    if kind == "pair":
        constraints = [drawn_constraint(data, t.field, t.constraint_ambient(i)) for i in range(t.m)]
        other = Trellis(t.field, t.m, t.symbol_dims, t.state_dims, tuple(constraints))
    else:
        maps = [data.draw(st.sampled_from(oracles.invertible_matrices(p, d))) for d in t.state_dims]
        other = recoordinatized(t, maps)
        if kind == "changed copy":
            i = data.draw(st.integers(0, t.m - 1))
            changed = drawn_constraint(data, t.field, t.constraint_ambient(i), t.constraints[i].dim)
            constraints = other.constraints[:i] + (changed,) + other.constraints[i + 1:]
            other = Trellis(t.field, t.m, t.symbol_dims, t.state_dims, constraints)
    iso = is_isomorphic(t, other)
    assert iso.isomorphic is oracles.isomorphic(t, other)
    if kind == "copy":
        assert iso.isomorphic is True
    if iso.isomorphic:
        assert_witness(t, other, iso)


@pytest.mark.parametrize("p", (5, 7))
def test_isomorphism_decides_above_the_old_search_caps(p):
    # four independent generators whose spans all pass through S_0, so
    # dim S_0 = 4; their product is observable and state-trim, so the
    # linear system has at most one solution
    rng, field, m = random.Random(p), FieldSpec(p), 6
    spans = [Span(5, 3, m), Span(4, 3, m), Span(3, 4, m), Span(2, 5, m)]
    words = []
    while rank(Mat.from_rows(field, m, words)) < len(spans):
        words = []
        for sp in spans:
            word = [0] * m
            for u, i in enumerate(sp.times()):
                word[i] = rng.randrange(1 if u in (0, sp.length - 1) else 0, p)
            words.append(tuple(word))
    t = product(field, [Generator(w, sp) for w, sp in zip(words, spans)], unit_dims(m))
    assert t.state_dims[0] == 4
    maps = []
    for d in t.state_dims:
        mat = Mat(field, 0, ())
        while mat.rows < d or rank(mat) < d:
            mat = Mat.from_rows(field, d, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])
        maps.append(mat.entries)
    copy = recoordinatized(t, maps)
    iso = is_isomorphic(t, copy)
    assert_witness(t, copy, iso)
    assert [w.entries for w in iso.witness] == maps
    # one symbol entry of one constraint row changed, at equal dims: the
    # code changes, so no state maps can make the two isomorphic
    x, s, y = copy.split(0, copy.constraints[0].basis.entries[0])
    rows = [x + ((s[0] + 1) % p,) + y, *copy.constraints[0].basis.entries[1:]]
    changed_c = Subspace.span(field, copy.constraint_ambient(0), rows)
    changed = Trellis(field, m, t.symbol_dims, t.state_dims, (changed_c,) + copy.constraints[1:])
    assert changed.constraint_dims() == t.constraint_dims()
    assert realized_code(changed) != realized_code(t)
    assert is_isomorphic(t, changed).isomorphic is False


def test_isomorphism_on_length_one_trellises():
    # for m = 1 both state blocks of C_0 are S_0, under the one map phi_0
    c = Subspace.span(GF3, 5, [[1, 0, 1, 0, 1], [0, 1, 0, 1, 1]])
    t = Trellis(GF3, 1, (1,), (2,), (c,))
    for maps in oracles.invertible_matrices(3, 2)[::7]:
        copy = recoordinatized(t, [maps])
        assert_witness(t, copy, is_isomorphic(t, copy))
        assert oracles.isomorphic(t, copy)
    for rows in ([[1, 0, 1, 1, 0], [0, 1, 0, 0, 1]], [[1, 0, 0, 0, 1], [0, 1, 1, 1, 0]]):
        other = Trellis(GF3, 1, (1,), (2,), (Subspace.span(GF3, 5, rows),))
        iso = is_isomorphic(t, other)
        assert iso.isomorphic is oracles.isomorphic(t, other)
        if iso.isomorphic:
            assert_witness(t, other, iso)


def test_isomorphism_without_states_is_constraint_equality():
    t = Trellis(GF2, 2, (2, 1), (0, 0), (Subspace.span(GF2, 2, [[1, 1]]), Subspace.full(GF2, 1)))
    same = Trellis(GF2, 2, (2, 1), (0, 0), t.constraints)
    iso = is_isomorphic(t, same)
    assert iso.witness == (Mat(GF2, 0, ()), Mat(GF2, 0, ()))
    assert_witness(t, same, iso)
    other = Trellis(GF2, 2, (2, 1), (0, 0), (Subspace.span(GF2, 2, [[1, 0]]), Subspace.full(GF2, 1)))
    assert is_isomorphic(t, other).isomorphic is False
    assert not oracles.isomorphic(t, other)


# --- time reversal -----------------------------------------------------------

def test_time_reversal_involution(random_set):
    for t in random_set[:40]:
        assert time_reversed(time_reversed(t)) == t
        assert realized_code(time_reversed(t)).dim == realized_code(t).dim


def test_product_behavior_dim_adds_for_corpus_products(figures):
    # corpus product trellises come from independent generator trajectories
    for name, count in (("fig1a", 2), ("fig3a", 3), ("fig7", 6), ("fig10a", 3)):
        assert behavior(figures[name]).dim == count
    assert behavior(figures["sec8-chain-example"]).dim == 4


def test_length_one_trellis_surgery():
    from trellislab.reduction import merge_to, trim_to

    c = Subspace.span(GF2, 5, [[1, 0, 0, 1, 0], [0, 1, 1, 0, 1]])
    t = Trellis(GF2, 1, (1,), (2,), (c,))
    assert behavior(t).dim >= 0  # solvable with the repeated state block
    assert dualize(dualize(t)) == t
    y = Subspace.span(GF2, 2, [[1, 0]])
    trimmed = trim_to(t, 0, y)
    assert trimmed.state_dims == (1,)
    assert trimmed.constraints[0].ambient_dim == 3
    merged = merge_to(t, 0, y)
    assert merged.state_dims == (1,)
