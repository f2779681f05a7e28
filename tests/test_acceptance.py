"""Acceptance suite: one check per criterion, each printing a PASS line and
holding to its stated runtime budget.  All comparisons are exact."""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from trellislab.galois import GF2, Subspace, orthogonal
from trellislab.trellis import (
    Span,
    behavior,
    dualize,
    is_isomorphic,
    realized_code,
)
from trellislab.analysis import (
    controllability_audit,
    connected,
    controllable,
    global_trim_flags,
    local_flags,
    merge_trim_status,
    observable,
)
from trellislab.fragments import (
    check_fragment_duality,
    t_observability_profile,
)
from trellislab.reduction import (
    kv_trellis,
    merge_to,
    reduce_driver,
    span_profile,
    trim_to,
    two_reduction_m1,
    zero_run_reduce,
)
from trellislab.corpus import verify_corpus
from conftest import random_subspace

import oracles


@contextmanager
def budget(name: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {seconds:.0f}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.2f}s)"


def test_criterion_1_figure_corpus():
    with budget("1 figure corpus", 10):
        results = verify_corpus()
        assert len(results) == 21
        for r in results:
            assert not r.failed, (r.entry_id, r.failed)
        by_id = {r.entry_id: r for r in results}
        for required in (
            "fig1a",
            "fig1b",
            "fig3a",
            "fig3b",
            "fig2a",
            "fig2b",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "fig6",
            "fig14a",
            "fig14b",
        ):
            assert required in by_id


def test_criterion_2_controllability_dimension_test(random_set):
    with budget("2 controllability test", 30):
        assert len(random_set) >= 200
        fields = {t.field.p for t in random_set}
        assert fields == {2, 3}
        assert all(t.m <= 5 and max(t.state_dims, default=0) <= 2 for t in random_set)
        for t in random_set:
            audit = controllability_audit(t)
            assert audit.total_constraint_dim <= audit.behavior_dim + audit.total_state_dim
            dual_trajectories = oracles.enumerate_behavior(dualize(t))
            dual_codewords = {a for a, _ in dual_trajectories}
            dual_observable = len(dual_trajectories) == len(dual_codewords)
            assert audit.controllable == dual_observable


def test_criterion_3_fragment_duality(random_set):
    with budget("3 fragment duality", 60):
        for t in random_set:
            for j in range(t.m):
                for length in range(t.m + 1):
                    report = check_fragment_duality(t, Span(j, length, t.m))
                    assert report.holds and report.dual_external_matches


def _kv_examples() -> list:
    rng = random.Random(771)
    out = []
    attempts = 0
    while len(out) < 12 and attempts < 400:
        attempts += 1
        m = rng.randint(4, 7)
        k = rng.randint(2, min(4, m - 1))
        code = random_subspace(rng, GF2, m, k)
        if code.dim != k or orthogonal(code).dim == 0:
            continue
        try:
            if span_profile(code).chi <= 1 or span_profile(orthogonal(code)).chi <= 1:
                continue
        except ValueError:
            continue
        prof = span_profile(code)
        built = None
        for starts in combinations(range(m), k):
            ends = [(a + prof.per_position[a] - 1) % m for a in starts]
            if len(set(ends)) != k:
                continue
            try:
                built = kv_trellis(code, starts)
                break
            except ValueError:
                continue
        if built is not None:
            out.append(built)
    return out


def test_criterion_4_interval_memory_implications(random_set, figures):
    with budget("4 interval memory implications", 60):
        pool = list(random_set) + list(figures.values())
        for t in pool:
            m = t.m
            rep_state_trim = global_trim_flags(t).state_trim
            rep_branch_trim = global_trim_flags(t).branch_trim
            dual_flags = global_trim_flags(dualize(t))
            prof = t_observability_profile(t)
            obs = observable(t)
            ctr = controllable(t)
            if ctr:
                assert prof.controllable[m] == rep_state_trim
            if obs:
                assert prof.observable[m] == dual_flags.state_trim
            if m >= 2:
                if ctr:
                    assert prof.controllable[m - 1] == rep_branch_trim
                if obs:
                    assert prof.observable[m - 1] == dual_flags.branch_trim
                if prof.controllable[m - 1]:
                    trim_all = all(local_flags(t, i)[0] for i in range(m))
                    assert rep_branch_trim and rep_state_trim and trim_all
                if prof.observable[m - 1]:
                    assert dual_flags.state_trim and dual_flags.branch_trim
                if obs and not prof.observable[m - 1]:
                    assert not dual_flags.branch_trim
            if ctr and prof.observable[m]:
                _, nonmergeable = merge_trim_status(t)
                proper_all = all(local_flags(t, i)[1] for i in range(m))
                assert nonmergeable and proper_all
        for t in _kv_examples():
            dual_flags = global_trim_flags(dualize(t))
            assert dual_flags.state_trim and dual_flags.branch_trim


def test_criterion_5_zero_run_example(figures):
    with budget("5 zero-run worked example", 5):
        fig7 = figures["fig7"]
        cons, strict = zero_run_reduce(fig7, 0, 3)
        assert cons.details["x_basis"] == Subspace.span(GF2, 3, [[0, 1, 0], [1, 1, 1]])
        assert strict.result.state_dims[6] == 1
        assert strict.result.state_dims[7] == 2
        assert strict.result.state_dims[8] == 2
        assert strict.strict and strict.conservative
        prof = t_observability_profile(strict.result)
        assert prof.observable[7] and prof.controllable[7]


def test_criterion_6_minimum_span_lengths(figures):
    with budget("6 span lengths", 5):
        code_small = Subspace.span(GF2, 5, [[1, 0, 1, 1, 0], [1, 1, 0, 0, 1]])
        assert set(code_small.vectors()) == {
            (0, 0, 0, 0, 0),
            (1, 0, 1, 1, 0),
            (1, 1, 0, 0, 1),
            (0, 1, 1, 1, 1),
        }
        cases = [
            (code_small, 3),
            (realized_code(figures["fig7"]), 3),
            (orthogonal(realized_code(figures["fig7"])), 6),
            (realized_code(figures["fig10a"]), 2),
            (orthogonal(realized_code(figures["fig10a"])), 3),
        ]
        for code, want in cases:
            assert span_profile(code).chi == want
            brute = oracles.min_span_length(
                2, oracles.subspace_set(code), code.ambient_dim
            )
            assert brute == want


def test_criterion_7_connectedness(random_set, figures):
    with budget("7 connectedness", 30):
        checked = 0
        for t in random_set:
            current = t
            for _ in range(10):
                flags = global_trim_flags(current)
                if flags.state_trim:
                    break
                i = next(q for q, ok in enumerate(flags.state_trim_at) if not ok)
                from trellislab.galois import project

                cols = list(
                    range(
                        current.state_offset(i),
                        current.state_offset(i) + current.state_dims[i],
                    )
                )
                current = trim_to(current, i, project(behavior(current), cols))
            if not global_trim_flags(current).state_trim:
                continue
            assert controllable(current) == connected(current).connected
            checked += 1
        assert checked >= 150
        for name in ("fig14a", "fig14b"):
            t = figures[name]
            assert controllable(t)
            assert not connected(t).connected
            assert not global_trim_flags(t).state_trim


def test_criterion_8_reduction_safety(figures, random_set, rng, built_steps):
    with budget("8 reduction safety", 60):
        steps = built_steps
        reduce_driver(figures["fig1a"])
        reduce_driver(figures["fig1b"])
        reduce_driver(figures["fig3a"])
        reduce_driver(figures["fig4b"])
        two_reduction_m1(figures["fig3a"])
        zero_run_reduce(figures["fig5a"], 0, 2)
        zero_run_reduce(figures["fig7"], 0, 3)
        for t in random_set[:30]:
            reduce_driver(t)
        assert len(steps) > 40
        for step in steps:
            assert realized_code(step.result) == realized_code(step.input)
            strict = any(
                a < b for a, b in zip(step.result.state_dims, step.input.state_dims)
            ) and not any(
                a > b for a, b in zip(step.result.state_dims, step.input.state_dims)
            )
            conservative = all(
                a <= b
                for a, b in zip(
                    step.result.constraint_dims(), step.input.constraint_dims()
                )
            )
            assert step.strict == strict
            assert step.conservative == conservative
        # trim/merge pairs are mutually dual
        checked = 0
        for t in random_set:
            if max(t.state_dims, default=0) > 2:
                continue
            i = rng.randrange(t.m)
            if t.state_dims[i] == 0:
                continue
            y = random_subspace(rng, t.field, t.state_dims[i])
            left = dualize(trim_to(t, i, y))
            right = merge_to(dualize(t), i, orthogonal(y))
            assert is_isomorphic(left, right).isomorphic is True
            checked += 1
            if checked >= 40:
                break
        assert checked >= 40


def test_criterion_9_behavior_oracle_equivalence(random_set, figures):
    with budget("9 oracle equivalence", 60):
        pool = list(random_set) + list(figures.values())
        tested = 0
        for t in pool:
            coords = t.symbol_total() + t.state_total()
            if t.field.p ** coords > 2 ** 20:
                continue
            b = behavior(t)
            na = t.symbol_total()
            got = {(v[:na], v[na:]) for v in b.vectors()}
            assert got == oracles.enumerate_behavior(t)
            tested += 1
        assert tested >= 200
