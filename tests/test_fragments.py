import gc
import random
import weakref

import pytest
from hypothesis import given, settings

from trellislab.galois import GF2, GF3, FieldSpec, Subspace, cross_section, project
from trellislab.trellis import Span, Trellis, behavior, dualize, realized_code
from trellislab.fragments import (
    check_fragment_duality,
    compose,
    fragment,
    is_fragment_trim,
    is_jk_controllable,
    is_jk_observable,
    t_observability_profile,
    transition_relation,
    unobservable_state_space,
)
from trellislab.reduction import conventional_trellis, span_profile

import oracles
from conftest import trellises


def test_edge_fragment_is_equality_constraint(figures):
    t = figures["fig1a"]
    assert fragment(t, Span(2, 0, 3)) == Subspace.span(GF2, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    edge = Span(2, 0, 3)
    # no symbols in the fragment
    assert transition_relation(t, edge, "full") == transition_relation(t, edge, "unobservable")


def test_single_constraint_fragment(figures):
    # (state-in | symbol | state-out), the order of the constraint itself
    t = figures["fig3a"]
    for i in range(t.m):
        assert fragment(t, Span(i, 1, t.m)) == t.constraints[i]


def test_internal_behavior_matches_path_enumeration(figures):
    for name in ("fig1a", "fig2b", "fig3a"):
        t = figures[name]
        for length in (1, 2, t.m):
            na, internal, _ = oracles.kernel_fragment(t, Span(0, length, t.m))
            got = {(v[:na], v[na:]) for v in internal.vectors()}
            want = set(oracles.enumerate_fragment_paths(t, 0, length))
            assert got == want


def test_compose_matches_enumeration():
    # zero, full and random r, with each of a, b, c sometimes 0, and one s
    # split at every b; the zero and full cases are read from s.memo on the
    # second call
    rng = random.Random(81)

    def rand_space(field, n):
        rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(rng.randrange(0, n + 2))]
        return Subspace.span(field, n, rows)

    checked = {"zero": 0, "full": 0, "random": 0}
    for field in (GF2, GF3, FieldSpec(5)):
        for _ in range(20):
            n, a = rng.randrange(0, 4), rng.randrange(0, 3)
            s = rand_space(field, n)
            for b in range(n + 1):
                by_y = {}
                for v in oracles.subspace_set(s):
                    by_y.setdefault(v[:b], []).append(v[b:])
                for kind in checked:
                    r = {
                        "zero": Subspace.zero(field, a + b),
                        "full": Subspace.full(field, a + b),
                        "random": rand_space(field, a + b),
                    }[kind]
                    want = {v[:a] + z for v in oracles.subspace_set(r) for z in by_y.get(v[a:], ())}
                    for _ in range(2):
                        assert oracles.subspace_set(compose(r, s, b)) == want
                    checked[kind] += 1
    assert min(checked.values()) > 100


def test_transition_spaces_match_path_enumeration(figures, random_set):
    # T is the set of boundary pairs of all paths, U that of the zero-symbol
    # paths and the fragment the (s_j | symbols | s_k) boundary of all paths,
    # on every interval, by branch walking only
    checked = 0
    for t in list(figures.values()) + random_set[:40]:
        for tr in (t, dualize(t)):
            for j in range(tr.m):
                for length in range(tr.m + 1):
                    iv = Span(j, length, tr.m)
                    last = sum(tr.state_dims[(j + u) % tr.m] for u in range(length))
                    full, unobs, external = set(), set(), set()
                    for syms, states in oracles.enumerate_fragment_paths(tr, j, length):
                        pair = states[: tr.state_dims[j]] + states[last:]
                        full.add(pair)
                        if not any(syms):
                            unobs.add(pair)
                        external.add(states[: tr.state_dims[j]] + syms + states[last:])
                    assert oracles.subspace_set(transition_relation(tr, iv, "full")) == full
                    assert oracles.subspace_set(transition_relation(tr, iv, "unobservable")) == unobs
                    assert oracles.subspace_set(fragment(tr, iv)) == external
                    checked += 1
    assert checked > 1000


def test_whole_axis_fragment_larger_than_behavior(figures):
    t = figures["fig1a"]
    assert oracles.kernel_fragment(t, Span(0, 3, 3))[1].dim > behavior(t).dim


def test_fragment_matches_kernel_reference(figures, random_set):
    # the composed external behavior is the kernel reference's, with its
    # (symbols | s_j | s_k) columns reordered to (s_j | symbols | s_k)
    checked = 0
    for t in list(figures.values()) + random_set:
        for tr in (t, dualize(t)):
            for j in range(tr.m):
                for length in range(tr.m + 1):
                    iv = Span(j, length, tr.m)
                    na, _, external = oracles.kernel_fragment(tr, iv)
                    dj = tr.state_dims[j]
                    rows = [row[na:na + dj] + row[:na] + row[na + dj:] for row in external.basis.entries]
                    assert fragment(tr, iv) == Subspace.span(tr.field, external.ambient_dim, rows)
                    checked += 1
    assert checked == 6764


def test_transition_spaces_nesting(figures, random_set):
    for t in list(figures.values()) + random_set[:40]:
        for length in range(t.m + 1):
            iv = Span(0, length, t.m)
            total, inter = (transition_relation(t, iv, part) for part in ("full", "unobservable"))
            assert total.contains_space(inter)
            if not any(t.symbol_dims[i] for i in iv.times()):
                assert total == inter


def test_unobservable_fragment_of_bcjr_example(figures):
    fig3a = figures["fig3a"]
    u = transition_relation(fig3a, Span(0, 3, 5), "unobservable")
    assert u.dim == 1
    # the all-zero run extends across one more constraint
    u4 = transition_relation(fig3a, Span(0, 4, 5), "unobservable")
    assert u4.dim == 1


def test_jk_observability_examples(figures):
    fig7 = figures["fig7"]
    assert not is_jk_observable(fig7, Span(0, 6, 9))
    # whole-axis fragment of the merge example: the all-zero path between two
    # distinct states at the cut time witnesses m-unobservability
    fig1a = figures["fig1a"]
    assert not is_jk_observable(fig1a, Span(2, 3, 3))
    zero = Trellis(GF2, 2, (1, 1), (0, 0), (Subspace.zero(GF2, 1), Subspace.zero(GF2, 1)))
    for length in range(3):
        assert is_jk_observable(zero, Span(0, length, 2))
        assert is_jk_controllable(zero, Span(0, length, 2))


def test_edge_interval_observability_iff_trivial_state(figures):
    t = figures["fig1a"]
    for j in range(t.m):
        empty = Span(j, 0, t.m)
        assert is_jk_observable(t, empty) == (t.state_dims[j] == 0)
        assert is_jk_controllable(t, empty) == (t.state_dims[j] == 0)


def test_fragment_trim_examples(figures, random_set):
    assert not is_fragment_trim(figures["fig1b"], Span(2, 0, 3))
    # on a minimal conventional trellis every path whose complement arc covers
    # the (trivial) cut state extends to a trajectory
    conv = conventional_trellis(realized_code(figures["fig3a"]), 0)
    for j in range(conv.m):
        for length in range(conv.m + 1):
            iv = Span(j, length, conv.m)
            comp_states = [iv.end] + iv.complement().interior() + [iv.start]
            if 0 in comp_states:
                assert is_fragment_trim(conv, iv)
    # a [k,j)-controllable trellis is [j,k)-trim
    checked = 0
    for t in random_set[:60]:
        for j in range(t.m):
            for length in range(t.m + 1):
                iv = Span(j, length, t.m)
                if is_jk_controllable(t, iv.complement()):
                    assert is_fragment_trim(t, iv)
                    checked += 1
    assert checked > 50


def test_controllable_and_trim_implies_complement_controllable(random_set):
    from trellislab.analysis import controllable

    checked = 0
    for t in random_set:
        if not controllable(t):
            continue
        for j in range(t.m):
            for length in range(t.m + 1):
                iv = Span(j, length, t.m)
                if is_fragment_trim(t, iv):
                    assert is_jk_controllable(t, iv.complement())
                    checked += 1
    assert checked > 100


def test_fragment_duality_on_corpus_and_random(figures, random_set):
    for t in figures.values():
        for j in range(t.m):
            for length in range(t.m + 1):
                check_fragment_duality(t, Span(j, length, t.m))
    for t in random_set[:60]:
        for j in range(t.m):
            for length in range(t.m + 1):
                check_fragment_duality(t, Span(j, length, t.m))


def test_fragment_cache_keeps_no_reference_to_its_trellis(figures):
    # without the cycle collector, a trellis whose fragments were built dies
    # as soon as it is dropped
    fig = figures["fig3a"]
    t = Trellis(fig.field, fig.m, fig.symbol_dims, fig.state_dims, fig.constraints)
    alive = weakref.ref(t)
    gc.disable()
    try:
        check_fragment_duality(t, Span(0, 2, t.m))
        del t
        assert alive() is None
    finally:
        gc.enable()


def test_fragment_duality_gf3_signs():
    c0 = Subspace.span(GF3, 4, [[1, 1, 0, 2], [0, 1, 1, 1]])
    c1 = Subspace.span(GF3, 4, [[1, 0, 2, 1]])
    t = Trellis(GF3, 2, (1, 1), (1, 2), (c0, c1))
    for j in range(2):
        for length in range(3):
            report = check_fragment_duality(t, Span(j, length, 2))
            assert report.holds and report.dual_external_matches


@settings(max_examples=200, deadline=None)
@given(trellises())
def test_fragment_duality_on_any_trellis(t):
    # both halves, at every interval; p up to 7 and state dims up to 3
    for j in range(t.m):
        for length in range(t.m + 1):
            report = check_fragment_duality(t, Span(j, length, t.m))  # raises on a mismatch
            assert report.holds and report.dual_external_matches


def test_memory_profile_examples(figures):
    prof3 = t_observability_profile(figures["fig3a"])
    assert prof3.observable[5] and not prof3.observable[4]
    prof1 = t_observability_profile(figures["fig1a"])
    assert not any(prof1.observable.values())
    # duality: interval observability of the primal equals interval
    # controllability of the dual
    assert prof3.dual_controllable == prof3.observable
    assert prof3.dual_observable == prof3.controllable


def test_memory_profile_cross_check_raises_on_a_wrong_dual(figures, monkeypatch):
    # fig2a is controllable but not observable, so handed back as its own
    # dual its observable flags differ from the "dual's" controllable ones
    t = figures["fig2a"]
    assert t_observability_profile(t).observable != t_observability_profile(t).controllable
    monkeypatch.setattr("trellislab.fragments.dualize", lambda tr: tr)
    with pytest.raises(RuntimeError, match="disagrees with dual controllability"):
        t_observability_profile(t)


def test_memory_profile_matches_direct_fragments(figures, random_set):
    # the reference reads T and U off each fragment's kernel-built external
    # behavior, independently of the composed relations behind the profile
    for t in [figures["fig1a"], figures["fig3a"]] + random_set[:25]:
        prof = t_observability_profile(t)
        for length in range(1, t.m + 1):
            want_obs = want_ctr = True
            for j in range(t.m):
                iv = Span(j, length, t.m)
                na, _, external = oracles.kernel_fragment(t, iv)
                cols = range(na, na + t.state_dims[j] + t.state_dims[iv.end])
                want_obs &= cross_section(external, cols).is_zero()
                want_ctr &= project(external, cols).is_full()
            assert prof.observable[length] == want_obs
            assert prof.controllable[length] == want_ctr


def test_conventional_trellis_memory(figures):
    # a minimal conventional trellis of a code with chi > t is (m-t)-observable
    code = realized_code(figures["fig7"])
    conv = conventional_trellis(code, 0)
    chi = span_profile(code).chi
    prof = t_observability_profile(conv)
    for tparam in range(1, chi):
        assert prof.observable[conv.m - tparam]


def test_whole_axis_fragment_at_trivial_state_is_observable(figures):
    conv = conventional_trellis(realized_code(figures["fig3a"]), 0)
    assert conv.state_dims[0] == 0
    assert is_jk_observable(conv, Span(0, conv.m, conv.m))


def test_generalized_unobservability_blocks_reduced_duals(figures, random_set):
    # a proper trellis whose dual is reduced is generalized (m-1)-observable
    from trellislab.analysis import global_trim_flags, local_flags
    from trellislab.trellis import dualize

    checked = 0
    for t in random_set:
        if t.m < 2:
            continue
        if not all(local_flags(t, i)[1] for i in range(t.m)):
            continue
        gen_obs = all(
            is_jk_observable(t, Span(j, t.m - 1, t.m), generalized=True)
            for j in range(t.m)
        )
        dual_flags = global_trim_flags(dualize(t))
        if dual_flags.state_trim and dual_flags.branch_trim:
            assert gen_obs
            checked += 1
    assert checked > 20


def test_generalized_observability_discounts_global_runs(figures):
    fig2a = figures["fig2a"]  # unobservable
    su = unobservable_state_space(fig2a)
    assert not su.is_zero()
    iv = Span(0, fig2a.m, fig2a.m)
    assert not is_jk_observable(fig2a, iv)
    assert is_jk_observable(fig2a, iv, generalized=True)
    # for observable trellises the two notions agree
    fig3a = figures["fig3a"]
    for j in range(fig3a.m):
        for length in range(1, fig3a.m + 1):
            iv = Span(j, length, fig3a.m)
            assert is_jk_observable(fig3a, iv) == is_jk_observable(
                fig3a, iv, generalized=True
            )
