import json
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from trellislab.galois import GF2, GF3, FieldSpec, Subspace, orthogonal
from trellislab.trellis import (
    Generator,
    IsoResult,
    Span,
    Trellis,
    behavior,
    dualize,
    is_isomorphic,
    product,
    realized_code,
)
from trellislab import reduction
from trellislab.analysis import global_trim_flags, property_report
from trellislab.corpus import verify_corpus
from trellislab.specfile import parse, serialize
from trellislab.fragments import t_observability_profile
from trellislab.reduction import (
    apply_step,
    branch_expand,
    branch_trim,
    condition_A,
    conventional_trellis,
    expand_step,
    find_zero_run_witness,
    is_kv_trellis,
    kv_trellis,
    merge_to,
    minimal_span_generators,
    reduce_driver,
    replay,
    span_profile,
    t_irreducibility,
    trim_step,
    trim_to,
    two_reduction_m1,
    unobs_trim,
    zero_run_reduce,
)
from conftest import random_subspace, trellises

import oracles


# --- trim / merge primitives -------------------------------------------------

def test_trim_to_full_space_is_isomorphic(figures):
    t = figures["fig1a"]
    full = Subspace.full(GF2, t.state_dims[2])
    assert is_isomorphic(trim_to(t, 2, full), t).isomorphic is True


def test_merge_by_zero_is_isomorphic(figures):
    t = figures["fig1a"]
    zero = Subspace.zero(GF2, t.state_dims[2])
    assert is_isomorphic(merge_to(t, 2, zero), t).isomorphic is True


def test_trim_merge_duality_random(random_set, rng):
    checked = 0
    for t in random_set:
        if max(t.state_dims) > 2:
            continue
        i = rng.randrange(t.m)
        if t.state_dims[i] == 0:
            continue
        y = random_subspace(rng, t.field, t.state_dims[i])
        left = dualize(trim_to(t, i, y))
        right = merge_to(dualize(t), i, orthogonal(y))
        assert is_isomorphic(left, right).isomorphic is True
        checked += 1
        if checked >= 60:
            break
    assert checked >= 60


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_restrict_block_matches_brute_force(data):
    """The kernel of c's pulled-back parity checks is the set of c's members
    whose block lies in y, that block in y's basis coordinates."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    field, n = FieldSpec(p), data.draw(st.integers(0, 6))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))

    def rows(width, most):
        row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
        return data.draw(st.lists(row, max_size=min(width, most)))

    c = Subspace.span(field, n, rows(n, max(k for k in range(7) if p**k <= 2401)))
    y = Subspace.span(field, hi - lo, rows(hi - lo, 6))
    got = reduction._restrict_block(c, lo, hi, y)
    assert got.ambient_dim == n - (hi - lo) + y.dim
    assert oracles.subspace_set(got) == oracles.restricted_block(c, lo, hi, y)


def test_trim_preserves_code_only_for_safe_subspaces(figures):
    fig1b = figures["fig1b"]
    used = Subspace.span(GF2, 2, [[1, 1]])
    trimmed = trim_to(fig1b, 2, used)
    assert realized_code(trimmed) == realized_code(fig1b)
    # trimming to an unused line kills codewords
    bad = trim_to(fig1b, 2, Subspace.span(GF2, 2, [[1, 0]]))
    assert realized_code(bad) != realized_code(fig1b)


# --- branch surgery ----------------------------------------------------------

def test_branch_trim_follows_trajectory_projection(figures):
    fig3b = figures["fig3b"]
    trimmed = branch_trim(fig3b, 4)
    assert trimmed.constraints[4].dim == 2
    # oracle: branches occurring among enumerated trajectories
    dl = fig3b.state_dims[4]
    da = fig3b.symbol_dims[4]
    used = set()
    for syms, states in oracles.enumerate_behavior(fig3b):
        off_s = sum(fig3b.state_dims[:4])
        off_a = sum(fig3b.symbol_dims[:4])
        left = states[off_s:off_s + dl]
        sym = syms[off_a:off_a + da]
        right = states[:fig3b.state_dims[0]]
        used.add(left + sym + right)
    assert set(trimmed.constraints[4].vectors()) == used
    assert realized_code(trimmed) == realized_code(fig3b)
    with pytest.raises(ValueError):
        branch_trim(trimmed, 4)


def test_branch_expand_checks_code(figures):
    fig3a = figures["fig3a"]
    full = Subspace.full(GF2, fig3a.constraints[2].ambient_dim)
    with pytest.raises(ValueError):
        branch_expand(fig3a, 2, full)


# --- unobservable trimming ---------------------------------------------------

def test_unobs_trim_requires_unobservable(figures):
    with pytest.raises(ValueError):
        unobs_trim(figures["fig1a"])


def test_unobs_trim_on_merge_example(figures):
    fig2a = figures["fig2a"]
    step = unobs_trim(fig2a)
    assert step.strict and step.conservative
    assert realized_code(step.result) == realized_code(fig2a)
    assert sum(step.result.state_dims) == sum(fig2a.state_dims) - 1


def test_unobs_trim_dual_merge_keeps_constraint_dims(figures):
    # the mirror merge on the dual leaves every constraint dimension unchanged
    fig2a = figures["fig2a"]
    step = unobs_trim(fig2a)
    idx = step.params["time"]
    dual = dualize(fig2a)
    mirrored = merge_to(dual, idx, orthogonal(step.details["trim_basis"]))
    assert mirrored.constraint_dims() == dual.constraint_dims()
    assert is_isomorphic(dualize(step.result), mirrored).isomorphic is True


def test_unobs_trim_choose_index(figures):
    fig4a = figures["fig4a"]
    step = unobs_trim(fig4a, choose_index=4)
    assert step.params["time"] == 4
    assert step.strict and step.conservative
    assert realized_code(step.result) == realized_code(fig4a)
    # 2-reduction shape: only S_4 shrank, only C_3 and C_4 changed
    for i in range(5):
        if i == 4:
            assert step.result.state_dims[i] == fig4a.state_dims[i] - 1
        else:
            assert step.result.state_dims[i] == fig4a.state_dims[i]
    for i in (0, 1, 2):
        assert step.result.constraints[i] == fig4a.constraints[i]
    # adjacent constraint dimensions drop by exactly one
    assert step.before_constraint_dims[3] - step.after_constraint_dims[3] == 1
    assert step.before_constraint_dims[4] - step.after_constraint_dims[4] == 1


# --- the two-step 2-reduction -------------------------------------------------

def test_two_reduction_on_bcjr_example(figures):
    fig3a = figures["fig3a"]
    two = two_reduction_m1(fig3a)
    assert [s.kind for s in two.primal_steps] == ["branch-expand", "unobs-trim"]
    assert [s.kind for s in two.dual_steps] == ["branch-trim", "merge"]
    assert realized_code(two.primal_result) == realized_code(fig3a)
    assert realized_code(two.dual_result) == orthogonal(realized_code(fig3a))
    # composite strict and conservative on both sides
    assert sum(two.primal_result.state_dims) == sum(fig3a.state_dims) - 1
    assert all(
        a <= b
        for a, b in zip(two.primal_result.constraint_dims(), fig3a.constraint_dims())
    )
    assert is_isomorphic(dualize(two.primal_result), two.dual_result).isomorphic is True


def test_two_reduction_mirror_check_fails_closed(figures, monkeypatch):
    # an undecided mirror check raises, as a failed one does
    monkeypatch.setattr(reduction, "is_isomorphic", lambda a, b: IsoResult(None, note="cap"))
    with pytest.raises(RuntimeError, match="failed to mirror"):
        two_reduction_m1(figures["fig3a"])


def test_two_reduction_rejects_inapplicable(figures):
    with pytest.raises(ValueError):
        two_reduction_m1(figures["fig10a"])
    with pytest.raises(ValueError):
        two_reduction_m1(figures["fig2a"])  # not observable


def test_two_reduction_off_trim_inputs_is_inapplicable(random_set):
    # strict and conservative is guaranteed only on state- and branch-trim
    # inputs; elsewhere a composite that is neither is reported as
    # inapplicable (ValueError), never as a broken invariant (RuntimeError)
    inapplicable = succeeded = 0
    for t in random_set:
        for side in (t, dualize(t)):
            try:
                two = two_reduction_m1(side)
            except ValueError as exc:
                if "composite" in str(exc):
                    gt = global_trim_flags(side)
                    assert not (gt.state_trim and gt.branch_trim)
                    inapplicable += 1
                continue
            after = two.primal_result
            assert any(a < b for a, b in zip(after.state_dims, side.state_dims))
            assert all(a <= b for a, b in zip(after.constraint_dims(), side.constraint_dims()))
            succeeded += 1
    assert inapplicable and succeeded


# --- conditions and zero-run reductions ---------------------------------------

def test_conditions_on_examples(figures):
    fig5a = figures["fig5a"]
    wit = find_zero_run_witness(fig5a, 0, 2)
    assert wit is not None and wit[1] == "A"
    assert condition_A(fig5a, 0, 2, wit[0])
    fig7 = figures["fig7"]
    wit7 = find_zero_run_witness(fig7, 0, 3)
    assert wit7 is not None and wit7[1] == "A"
    # no witness anywhere on the small-reduction example
    fig10a = figures["fig10a"]
    for tlen in range(2, 6):
        for j in range(6):
            assert find_zero_run_witness(fig10a, j, tlen) is None
            assert find_zero_run_witness(dualize(fig10a), j, tlen) is None


def test_zero_run_on_bcjr_chain(figures):
    fig5a = figures["fig5a"]
    cons, strict = zero_run_reduce(fig5a, 0, 2)
    assert cons.result.state_dims == fig5a.state_dims
    assert cons.result.constraint_dims() == fig5a.constraint_dims()
    assert strict.strict and strict.conservative
    assert strict.result.state_dims == (2, 1, 1, 1, 1)
    assert realized_code(strict.result) == realized_code(fig5a)


def test_zero_run_full_checks_on_fig7(figures):
    fig7 = figures["fig7"]
    cons, strict = zero_run_reduce(fig7, 0, 3)
    assert cons.details["x_basis"] == Subspace.span(GF2, 3, [[0, 1, 0], [1, 1, 1]])
    assert cons.result.state_dims == fig7.state_dims
    assert cons.result.constraint_dims() == fig7.constraint_dims()
    assert strict.result.state_dims == (3, 3, 3, 2, 1, 1, 1, 2, 2)
    assert strict.strict and strict.conservative
    prof = t_observability_profile(strict.result)
    assert prof.observable[7] and prof.controllable[7]


def test_zero_run_rejects_observable_fragment(figures):
    with pytest.raises(ValueError):
        zero_run_reduce(figures["fig7"], 0, 2)  # [0,7) is observable


def test_zero_run_expansion_mixing_property(figures):
    fig7 = figures["fig7"]
    wit = find_zero_run_witness(fig7, 0, 3)[0]
    step = expand_step(fig7, 0, 3, wit)
    expanded = step.result
    # any branch combining the adjoined coordinates does so with equal weights
    for i in (7,):  # interior-to-interior constraint of the expanded arc
        dl = expanded.state_dims[i]
        da = expanded.symbol_dims[i]
        for b in oracles.branch_set(expanded, i):
            assert b[0] == b[dl + da]
    assert behavior(expanded).dim == behavior(fig7).dim + 1


def test_zero_run_condition_a_prime_via_reversal(figures):
    # time-reverse the 2-irreducible example so its witness satisfies A'
    fig7 = figures["fig7"]
    from trellislab.trellis import time_reversed

    rev = time_reversed(fig7)
    found = None
    for j in range(9):
        got = find_zero_run_witness(rev, j, 3)
        if got is not None:
            found = (j, got)
            break
    assert found is not None
    j, (pair, cond) = found
    assert cond == "A-prime"
    cons, strict = zero_run_reduce(rev, j, 3)
    assert strict.strict and strict.conservative
    assert realized_code(strict.result) == realized_code(rev)
    assert strict.params["condition"] == "A-prime"
    # mirror of the condition-A reduction on the forward trellis
    assert sorted(strict.result.state_dims) == sorted(
        zero_run_reduce(fig7, 0, 3)[1].result.state_dims
    )


# --- span profiles and product generators --------------------------------------

def test_span_profile_examples(figures):
    code = Subspace.span(GF2, 5, [[1, 0, 1, 1, 0], [1, 1, 0, 0, 1]])
    assert set(code.vectors()) == {
        (0, 0, 0, 0, 0),
        (1, 0, 1, 1, 0),
        (1, 1, 0, 0, 1),
        (0, 1, 1, 1, 1),
    }
    prof = span_profile(code)
    assert prof.chi == 3
    assert prof.per_position == (4, 4, 4, 5, 3)
    code7 = realized_code(figures["fig7"])
    assert span_profile(code7).chi == 3
    assert span_profile(orthogonal(code7)).chi == 6
    code10 = realized_code(figures["fig10a"])
    assert code10.contains([1, 0, 0, 0, 0, 1])
    assert span_profile(code10).chi == 2
    assert span_profile(orthogonal(code10)).chi == 3


def test_span_profile_matches_enumeration(figures, rng):
    # the GF(3) codes come from their own generator, so the shared one feeds
    # the later tests the same draws
    for field, gen in ((GF2, rng), (GF3, random.Random(289))):
        for _ in range(30):
            m = gen.randint(2, 7)
            dim = gen.randint(1, min(4, m))
            code = random_subspace(gen, field, m, dim)
            if code.dim == 0:
                continue
            words = oracles.subspace_set(code)
            prof = span_profile(code)
            assert prof.chi == oracles.min_span_length(field.p, words, m)
            assert prof.per_position == oracles.shortest_span_lengths(words, m)


def test_span_profile_rejects_zero_code():
    with pytest.raises(ValueError):
        span_profile(Subspace.zero(GF2, 4))


def test_kv_trellis_construction():
    code = Subspace.span(GF2, 5, [[0, 1, 1, 1, 0], [1, 0, 0, 1, 0], [0, 1, 1, 0, 1]])
    prof = span_profile(code)
    starts = None
    from itertools import combinations

    for cand in combinations(range(5), 3):
        ends = [(a + prof.per_position[a] - 1) % 5 for a in cand]
        if len(set(ends)) == 3:
            try:
                t = kv_trellis(code, cand)
            except ValueError:
                continue
            starts = cand
            break
    assert starts is not None
    rep = property_report(t)
    assert rep.state_trim and rep.branch_trim and rep.proper
    assert rep.observable and rep.controllable
    assert realized_code(t) == code
    # the dual of a product trellis built this way is state- and branch-trim
    dual_rep = property_report(dualize(t))
    assert dual_rep.state_trim and dual_rep.branch_trim
    assert is_kv_trellis(t) is True


def test_kv_trellis_rejects_zero_code():
    with pytest.raises(ValueError):
        kv_trellis(Subspace.zero(GF2, 3), [])


def test_kv_search_decides_the_even_weight_code_at_once():
    # the even-weight code of length 24 has 2^23 words: its one start set is
    # read off the state profile and each start's words off a D(a, 2) of
    # dimension 1, so the code is never enumerated
    m = 24
    code = Subspace.span(GF2, m, [[int(q in (i, i + 1)) for q in range(m)] for i in range(m - 1)])
    t = conventional_trellis(code, 0)
    began = time.perf_counter()
    assert is_kv_trellis(t) is True
    assert time.perf_counter() - began < 1.0
    assert is_isomorphic(kv_trellis(code, range(m - 1)), t).isomorphic is True


def test_fig7_is_not_kv(figures):
    fig7 = figures["fig7"]
    assert is_kv_trellis(fig7) is False
    # the length-6 generator starting at 5 is not a shortest span: a sum of
    # the other generators covers position 5 in a length-4 window
    code = realized_code(fig7)
    prof = span_profile(code)
    assert prof.per_position[5] == 4
    assert code.contains([0, 0, 0, 0, 0, 1, 0, 0, 1])


def test_is_kv_reports_undecided_above_cap(figures, monkeypatch):
    # fig7's state profile leaves one free cycle of a -> end(a): two subsets
    monkeypatch.setattr(reduction, "MAX_KV_CANDIDATES", 1)
    assert is_kv_trellis(figures["fig7"]) is None


@st.composite
def kv_products(draw) -> Trellis:
    """A product of 1 to m-1 generators over GF(2), GF(3) or GF(5), m 3 to 9,
    each word drawn inside its span with nonzero ends, or that product's dual."""
    field = FieldSpec(draw(st.sampled_from((2, 3, 5))))
    m = draw(st.integers(3, 9))
    gens = []
    for _ in range(draw(st.integers(1, m - 1))):
        span = Span(draw(st.integers(0, m - 1)), draw(st.integers(2, m)), m)
        word = [0] * m
        for u, q in enumerate(span.times()):
            word[q] = draw(st.integers(int(u in (0, span.length - 1)), field.p - 1))
        gens.append(Generator(tuple(word), span))
    t = product(field, gens, (1,) * m)
    return dualize(t) if draw(st.booleans()) else t


def _gf_product(p, m, gens) -> Trellis:
    return product(FieldSpec(p), [Generator(w, Span(a, n, m)) for w, a, n in gens], (1,) * m)


# a state profile with two free cycles of a -> end(a), one of them the start set
FREE_CYCLE = _gf_product(3, 6, [((0, 2, 2, 2, 1, 2), 1, 5), ((2, 1, 0, 0, 0, 1), 5, 3)])
# one start set, whose pools of 4, 100 and 20 words give 8,000 tuples: past the cap
PAST_THE_CAP = _gf_product(
    5, 7, [((3, 1, 4, 0, 0, 0, 0), 0, 3), ((0, 4, 0, 4, 1, 2, 4), 5, 7), ((2, 0, 0, 2, 0, 0, 4), 6, 5)]
)


@settings(max_examples=150, deadline=None)
@given(kv_products())
@example(FREE_CYCLE)
@example(PAST_THE_CAP)
def test_kv_search_matches_the_start_set_walk(t):
    """The start sets read off the state profile are those of the walk over
    all C(m, k) sets, each start's words those of a pass over the code, and
    the verdict is the walk's wherever the walk decides."""
    code = realized_code(t)
    assume(0 < code.dim < t.m and code.field.p**code.dim <= 3125)
    prof = span_profile(code)
    assume(None not in prof.per_position and prof.chi > 1 and span_profile(orthogonal(code)).chi > 1)
    per, k = prof.per_position, code.dim
    assert reduction._kv_start_sets(t.state_dims, per, k) == oracles.kv_start_sets(t.state_dims, per, k)
    assert [reduction._shortest_span_words(code, a) for a in range(t.m)] == oracles.shortest_span_words(code)
    want = oracles.kv_verdict(t, code, reduction.MAX_KV_CANDIDATES)
    if want is not None:
        assert is_kv_trellis(t) is want


def test_kv_search_examples_reach_a_free_cycle_and_the_cap():
    code = realized_code(FREE_CYCLE)
    assert reduction._kv_start_sets(FREE_CYCLE.state_dims, span_profile(code).per_position, 2) == [(1, 5)]
    assert is_kv_trellis(FREE_CYCLE) is True
    assert is_kv_trellis(PAST_THE_CAP) is None


def test_dual_of_kv_is_kv():
    code = Subspace.span(GF2, 5, [[0, 1, 1, 1, 0], [1, 0, 0, 1, 0], [0, 1, 1, 0, 1]])
    prof = span_profile(code)
    from itertools import combinations

    built = None
    for starts in combinations(range(5), 3):
        try:
            built = kv_trellis(code, starts)
            break
        except ValueError:
            continue
    assert built is not None
    assert is_kv_trellis(built) is True
    assert is_kv_trellis(dualize(built)) is True


def test_kv_trellises_inherit_interval_memory():
    # for codes with both span lengths above t, shortest-span product
    # trellises are (m-t)-observable and (m-t)-controllable
    import random as _random
    from itertools import combinations

    rng = _random.Random(515)
    found = 0
    attempts = 0
    while found < 8 and attempts < 300:
        attempts += 1
        m = rng.randint(5, 7)
        k = rng.randint(2, 3)
        code = random_subspace(rng, GF2, m, k)
        if code.dim != k:
            continue
        try:
            chi = span_profile(code).chi
            chi_dual = span_profile(orthogonal(code)).chi
        except ValueError:
            continue
        bound = min(chi, chi_dual)
        if bound <= 2:
            continue
        built = None
        for starts in combinations(range(m), k):
            try:
                built = kv_trellis(code, starts)
                break
            except ValueError:
                continue
        if built is None:
            continue
        prof = t_observability_profile(built)
        for tparam in range(1, bound):
            assert prof.observable[m - tparam]
            assert prof.controllable[m - tparam]
        found += 1
    assert found >= 5


def test_minimal_span_generators_and_conventional(figures):
    code = realized_code(figures["fig10a"])
    for cut in range(6):
        gens = minimal_span_generators(code, cut)
        starts = [g.span.start for g in gens]
        ends = [(g.span.start + g.span.length - 1) % 6 for g in gens]
        assert len(set(starts)) == len(gens) and len(set(ends)) == len(gens)
        conv = conventional_trellis(code, cut)
        assert conv.state_dims[cut] == 0
        assert realized_code(conv) == code
        # state dimensions match the past/future subcode formula
        words = oracles.subspace_set(code)
        k = code.dim
        for i in range(6):
            past = [w for w in words if all(w[q] == 0 or ((q - cut) % 6) < ((i - cut) % 6) or i == cut for q in range(6))]
            future = [w for w in words if all(w[q] == 0 or ((q - cut) % 6) >= ((i - cut) % 6) for q in range(6))]
            if i == cut:
                continue
            import math

            dim_past = int(math.log2(len(oracles.span_set(2, past)))) if past else 0
            dim_future = int(math.log2(len(oracles.span_set(2, future)))) if future else 0
            assert conv.state_dims[i] == k - dim_past - dim_future


# --- t-irreducibility ----------------------------------------------------------

def test_t_irreducibility_examples(figures):
    fig7 = figures["fig7"]
    assert t_irreducibility(fig7, 2).verdict == "irreducible"
    fig9 = figures["fig9"]
    assert t_irreducibility(fig9, 2).verdict == "irreducible"
    fig12a = figures["fig12a"]
    assert t_irreducibility(fig12a, 1).verdict == "irreducible"
    with pytest.raises(ValueError):
        t_irreducibility(figures["fig2a"], 1)  # not TPOC


def test_t_irreducibility_needs_nonzero_code_and_dual():
    # TPOC trellises with trivial states: the zero code, and the full code
    # whose dual is zero; neither has the spans the decision is made from
    for make in (Subspace.zero, Subspace.full):
        t = Trellis(GF2, 3, (1, 1, 1), (0, 0, 0), tuple(make(GF2, 1) for _ in range(3)))
        assert property_report(t).tpoc
        with pytest.raises(ValueError, match="the code and its dual to be nonzero"):
            t_irreducibility(t, 1)


def test_t_irreducibility_reducible_cases(figures):
    fig3a = figures["fig3a"]
    dec = t_irreducibility(fig3a, 1)
    assert dec.verdict == "reducible"
    assert dec.steps and dec.steps[-1].strict and dec.steps[-1].conservative
    fig1b = figures["fig1b"]
    dec1b = t_irreducibility(fig1b, 1)
    assert dec1b.verdict == "reducible"
    assert dec1b.note.endswith("on the dual side")
    assert dec1b.steps[0].input == dualize(fig1b)
    sec8 = figures["sec8-chain-example"]
    dec8 = t_irreducibility(sec8, 2)
    assert dec8.verdict == "reducible"
    for step in dec8.steps:
        assert step.conservative
    assert dec8.steps[-1].strict


def test_t_irreducibility_outside_window(figures):
    dec = t_irreducibility(figures["fig10a"], 2)
    assert dec.verdict == "sufficient-only"


# Products (field, length, (word, start, span length) per generator) whose
# decisions, with their duals', reach every construction: a 2-reduction or
# a zero-run reduction, by t or by t - 1, on either side.
T_IRREDUCIBILITY_PRODUCTS = {
    "gf2-m6": (2, 6, [((1, 0, 0, 1, 0, 0), 3, 4), ((0, 0, 1, 1, 1, 1), 4, 6), ((0, 1, 1, 1, 0, 1), 2, 6)]),
    "gf3-m9": (3, 9, [((1, 0, 0, 0, 0, 1, 0, 2, 2), 5, 5), ((2, 0, 2, 2, 0, 1, 2, 0, 2), 8, 8),
                      ((2, 1, 0, 2, 1, 2, 2, 0, 0), 3, 8), ((0, 2, 1, 0, 0, 0, 1, 2, 0), 6, 6)]),
    "gf3-m8": (3, 8, [((1, 2, 0, 1, 0, 1, 0, 0), 0, 6), ((0, 2, 1, 0, 0, 0, 1, 1), 1, 7),
                      ((1, 2, 0, 0, 0, 1, 0, 2), 5, 5), ((1, 0, 1, 0, 2, 0, 1, 2), 6, 7)]),
}

# sha256 of json.dumps(_decisions(t), sort_keys=True) for each TPOC corpus
# entry whose code and dual are nonzero, each product above and its dual,
# and (one digest) the list of them over the random set's such members.
T_IRREDUCIBILITY_DIGESTS = {
    "fig10a": "2adbb2e0ad086b206d20fdce66a9f02992c6275beb2ae400c8e8b7411785edd9",
    "fig10b": "2adbb2e0ad086b206d20fdce66a9f02992c6275beb2ae400c8e8b7411785edd9",
    "fig12a": "4128c97e11446395fcb9c8e54fc3ff14e8291714820799b960140923f8b034bc",
    "fig12b": "4128c97e11446395fcb9c8e54fc3ff14e8291714820799b960140923f8b034bc",
    "fig1a": "ca65496b1335ee14bed2e43abca68beceafc036e41bbb28b6f45b27fb1bba0f3",
    "fig1b": "b3a6d75f816e568be28718e0bac75c60cd2e473faa7d527bde45e3c30b9add32",
    "fig3a": "8cac0b5618c8a371642e98cacdc9126c72f4ae5ad5b1baef85ce9b14166fe109",
    "fig3b": "02b7c78a6295be218b721e1174565d18c6774e51de7d9ac74b669f06fa40e76b",
    "fig5a": "8f4ab1eae600f4fb59aaed23f48113067b8050f42e409e53451a34a25aaccf69",
    "fig5b": "8f4ab1eae600f4fb59aaed23f48113067b8050f42e409e53451a34a25aaccf69",
    "fig7": "ea9a055e5ffb3047e0dd996be38962b65cc8ccd63440edd1c1d30f6e8e401678",
    "fig9": "caf58a102bca957ea12d2b5e815e108ff75cc562d01142afd5fa7f05aa8420ed",
    "sec8-chain-example": "eb534a57faee98d23c843155e45de07f7e63c3dd212d38ff26b332e2895231e1",
    "gf2-m6": "93b055d7d1196a2401dfdf4dc52f2024db1ab7b40ab2fb214727095b9f1de295",
    "gf2-m6-dual": "0e8acbd43cd60e37f90be65ad89fc5ee79881caf8a4081386117253370f8d89e",
    "gf3-m9": "ef77c377cf280ccc58081fb75c0d24140fde6bd843b2c4cfc495beb4ef2ccd50",
    "gf3-m9-dual": "3f1100ab2b8d1da3d0351280db22577784b99c48a69abcc5337b0bafcf8f836b",
    "gf3-m8": "44e03120845cdcccbec0d5ecb9720d7b347cce2966e24966d6269a7a91d6ffcc",
    "gf3-m8-dual": "6c755f7c8a491a7b9af6a02549da2df5b2d9068cbf7222e7dc9ce9b0b7472840",
    "random set": "33b2cdc32c10d1f69fbab226c85d6076412fab23c6286333189769353235a828",
}


def _decisions(t: Trellis) -> list[dict]:
    """t_irreducibility at every t: verdict, note, and each step's record
    and serialized result."""
    out = []
    for tparam in range(1, t.m):
        dec = t_irreducibility(t, tparam)
        out.append({
            "t": tparam,
            "verdict": dec.verdict,
            "note": dec.note,
            "records": [s.record() for s in dec.steps],
            "results": [serialize(s.result) for s in dec.steps],
        })
    return out


def _decidable(t: Trellis) -> bool:
    code = realized_code(t)
    return property_report(t).tpoc and not code.is_zero() and not code.is_full()


def test_t_irreducibility_pinned(figures, random_set):
    import hashlib

    def digest(value) -> str:
        return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()

    inputs = {name: t for name, t in figures.items() if _decidable(t)}
    for name, (p, m, gens) in T_IRREDUCIBILITY_PRODUCTS.items():
        t = product(FieldSpec(p), [Generator(w, Span(s, n, m)) for w, s, n in gens], (1,) * m)
        inputs[name], inputs[name + "-dual"] = t, dualize(t)
    got = {name: digest(_decisions(t)) for name, t in inputs.items()}
    got["random set"] = digest([_decisions(t) for t in random_set if _decidable(t)])
    assert got == T_IRREDUCIBILITY_DIGESTS


# --- driver and replay ----------------------------------------------------------

def test_driver_reaches_conventional_on_merge_example(figures):
    report = reduce_driver(figures["fig1a"])
    assert report.status == "reduced"
    final = property_report(report.final)
    assert final.tpoc and 0 in report.final.state_dims
    assert realized_code(report.final) == realized_code(figures["fig1a"])


def test_driver_chain_on_bcjr_example(figures):
    report = reduce_driver(figures["fig3a"])
    kinds = [s.kind for s in report.steps]
    assert kinds[0] == "branch-expand" and kinds[1] == "unobs-trim"
    final = property_report(report.final)
    assert final.tpoc and 0 in report.final.state_dims
    assert realized_code(report.final) == realized_code(figures["fig3a"])


def test_driver_no_applicable_method(figures):
    assert reduce_driver(figures["fig10a"]).status == "no-applicable-method"
    assert reduce_driver(figures["fig9"]).status == "no-applicable-method"
    assert reduce_driver(figures["fig12a"]).status == "no-applicable-method"


def test_driver_monotone_and_code_preserving(figures, random_set, built_steps):
    for t in list(random_set[:40]) + [figures["fig1b"], figures["fig4b"]]:
        built_steps.clear()
        report = reduce_driver(t)
        assert realized_code(report.final) == realized_code(t)
        for step in built_steps:
            assert realized_code(step.result) == realized_code(step.input)
            if step.strict:
                assert sum(step.after_state_dims) < sum(step.before_state_dims)


# sha256 of json.dumps(reduce_driver(t).records(), sort_keys=True) for each
# corpus entry, as first recorded; "4f53cd..." is the digest of "[]".
DRIVER_RECORD_DIGESTS = {
    "fig10a": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "fig10b": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "fig12a": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "fig12b": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "fig14a": "580792ff6a251c05db9ece40fe5d70941afbf32bd2b7a2bd5ecfe836d200e1b4",
    "fig14b": "362b34860982678f29c9d6219088735dd1e878f73ebbae3610375239f95e21df",
    "fig1a": "95e660678d3a420ac09aa22eac152c6e26ac2d34b2f76aa912d8ee417633373f",
    "fig1b": "49febfc69c557b753872b1b09fc7fca45e94b487d3597fb7b2d3e4f5121cc858",
    "fig2a": "27766004253e2ddf06eae28189cb2af8fbee53bf7ed587ac1eedf8056712abcf",
    "fig2b": "5aa4ed176a29911108eb3cc07a0da326f7dd441eb4da890dd474f798aa40a962",
    "fig3a": "a47c14399b0f55d7f2bd055659d936489de4015a0f954f21ba778c707f3cae79",
    "fig3b": "21b7e6b2aefdb2e7f547ce38ac3b9f17126174b722bbfd2e2bbd5612e9bd306a",
    "fig4a": "0d093ffb6c33b21dc4da50b7ae712fb2d3ce05bb1855c0919a25fb42c7d35b4c",
    "fig4b": "723225267865c74dde4ae0b1031b640d8ecb7dc7cc4e9bc796ccba22c86cc307",
    "fig5a": "74c0d0552e875317c83c588ad5ed78297ab3a0fc8077c6146460220ff373c255",
    "fig5b": "63602372d5cdd5e467b549325b5b40788a6d42484d208011357fed6b8c886b81",
    "fig6": "7608ddf19fc32235becb320b6c4cbcb06e9a39c862876fc1133381b834e13c06",
    "fig7": "41275cc2bd8e4fef373aa64269772c85f08cc92c6c4899790bc8fc85ca28ab0c",
    "fig8": "57d551b3d81af19a6896397741e9d345de7f6d6ac299aab3ddfb0bd5937cfd2d",
    "fig9": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "sec8-chain-example": "5f1b1367f7c5b5575c49e6636b6e37dfbf53676e69668607b69d090f4c94b2d7",
}


def test_driver_step_records_pinned_on_corpus(figures):
    import hashlib
    import json

    assert set(DRIVER_RECORD_DIGESTS) == set(figures)
    for name, t in figures.items():
        records = json.dumps(reduce_driver(t).records(), sort_keys=True)
        assert hashlib.sha256(records.encode()).hexdigest() == DRIVER_RECORD_DIGESTS[name], name


def test_replay_reproduces_results(figures):
    fig7 = figures["fig7"]
    cons, strict = zero_run_reduce(fig7, 0, 3)
    assert replay(fig7, [strict.record()]) == strict.result
    two = two_reduction_m1(figures["fig3a"])
    records = [s.record() for s in two.primal_steps]
    assert replay(figures["fig3a"], records) == two.primal_result
    step = trim_step(figures["fig1b"], 2, Subspace.span(GF2, 2, [[1, 1]]))
    assert apply_step(figures["fig1b"], step.record()) == step.result


def _replays_exactly(t: Trellis) -> None:
    """The driver's records, through JSON, replayed on a freshly parsed copy
    of t give the driver's final trellis, byte for byte."""
    report = reduce_driver(t)
    records = json.loads(json.dumps(report.records()))
    assert serialize(replay(parse(serialize(t)), records)) == serialize(report.final)


def test_replay_reproduces_driver_results_on_random_set(random_set):
    for t in random_set:
        _replays_exactly(t)


@settings(max_examples=200, deadline=None)
@given(trellises())
def test_replay_reproduces_driver_results_on_any_trellis(t):
    _replays_exactly(t)


def test_step_records_are_json_ready(figures):
    import json

    two = two_reduction_m1(figures["fig3a"])
    for step in two.primal_steps + two.dual_steps:
        encoded = json.dumps(step.record())
        assert json.loads(encoded) == step.record()


# --- code preservation over the changed interval -------------------------------

@settings(max_examples=200, deadline=None)
@given(trellises(), st.data())
def test_same_code_agrees_with_the_realized_codes(t, data):
    """Trim or merge of S_i by a drawn subspace, or a drawn replacement of
    C_i, checked over the step's own interval or over any interval: the
    verdict is always the comparison of the realized codes."""
    assume(t.m >= 2)
    i = data.draw(st.integers(0, t.m - 1))
    kind = data.draw(st.sampled_from(("trim", "merge", "replace")))
    if kind == "replace":
        n = t.constraints[i].ambient_dim
        rows = data.draw(st.lists(st.lists(st.integers(0, t.field.p - 1), min_size=n, max_size=n), max_size=n))
        constraints = list(t.constraints)
        constraints[i] = Subspace.span(t.field, n, rows)
        after = Trellis(t.field, t.m, t.symbol_dims, t.state_dims, tuple(constraints))
        own = Span(i, 1, t.m)
    else:
        d = t.state_dims[i]
        rows = data.draw(st.lists(st.lists(st.integers(0, t.field.p - 1), min_size=d, max_size=d), max_size=d))
        after = (trim_to if kind == "trim" else merge_to)(t, i, Subspace.span(t.field, d, rows))
        own = Span((i - 1) % t.m, 2, t.m)
    if data.draw(st.booleans()):
        own = Span(data.draw(st.integers(0, t.m - 1)), data.draw(st.integers(1, t.m - 1)), t.m)
    assert reduction._same_code(t, after, own) == (realized_code(after) == realized_code(t))


def test_same_code_takes_both_branches_on_corpus_chains_and_driver_runs(random_set, monkeypatch):
    """Over the corpus checks (which replay its chains step by step) and
    driver runs on the random set, the fragment decides some steps and the
    realized codes the others, and every verdict is their comparison."""
    checks = []
    code_calls = []
    same_code, code = reduction._same_code, reduction.realized_code

    def counted_code(t):
        code_calls.append(t)
        return code(t)

    def recorded(before, after, interval):
        calls = len(code_calls)
        verdict = same_code(before, after, interval)
        checks.append((before, after, verdict, len(code_calls) > calls))
        return verdict

    monkeypatch.setattr(reduction, "realized_code", counted_code)
    monkeypatch.setattr(reduction, "_same_code", recorded)
    assert all(not r.failed for r in verify_corpus())
    for t in random_set:
        reduce_driver(t)
    monkeypatch.undo()
    assert {fallback for *_, fallback in checks} == {False, True}
    for before, after, verdict, _ in checks:
        assert verdict == (realized_code(after) == realized_code(before))


def test_make_step_rejects_a_code_changing_rewrite_of_its_interval(figures):
    t = figures["fig1a"]
    after = trim_to(t, 1, Subspace.zero(GF2, t.state_dims[1]))
    assert realized_code(after) != realized_code(t)
    for start in range(t.m):
        for length in range(1, t.m + 1):
            assert not reduction._same_code(t, after, Span(start, length, t.m))
    with pytest.raises(RuntimeError, match="trim step failed to preserve the realized code"):
        reduction._make_step("trim", {"time": 1}, Span(0, 2, t.m), None, t, after)
