import json
import re
import time

import pytest

from trellislab.galois import GF2, Subspace, cross_section, project
from trellislab.trellis import Span, Trellis, behavior, dualize, realized_code
from trellislab.analysis import (
    Connectivity,
    classify_chain,
    connected,
    controllability_audit,
    controllable,
    global_trim_flags,
    local_flags,
    merge_trim_status,
    observable,
    property_report,
)
from trellislab.fragments import unobservable_state_space
from trellislab import reduction, render
from trellislab.reduction import trim_to
from trellislab.specfile import parse, serialize
from trellislab.cli import main

import oracles


def brute_observable(t) -> bool:
    trajectories = oracles.enumerate_behavior(t)
    codewords = {a for a, _ in trajectories}
    return len(trajectories) == len(codewords)


def test_local_flags_examples(figures):
    fig1a = figures["fig1a"]
    for i in range(3):
        assert local_flags(fig1a, i) == (True, True)
    # properness by explicit branch enumeration on the merged trellis
    fig2a = figures["fig2a"]
    for i in range(fig2a.m):
        _, proper = local_flags(fig2a, i)
        prev = (i - 1) % fig2a.m
        dl = fig2a.state_dims[prev]
        da = fig2a.symbol_dims[prev]
        incoming = any(
            not any(b[:dl]) and not any(b[dl:dl + da]) and any(b[dl + da:])
            for b in oracles.branch_set(fig2a, prev)
        )
        dl2 = fig2a.state_dims[i]
        da2 = fig2a.symbol_dims[i]
        outgoing = any(
            any(b[:dl2]) and not any(b[dl2:dl2 + da2]) and not any(b[dl2 + da2:])
            for b in oracles.branch_set(fig2a, i)
        )
        assert proper == (not incoming and not outgoing)


def test_zero_trellis_vacuously_trim_proper():
    zero = Trellis(GF2, 3, (1, 1, 1), (0, 0, 0), tuple(Subspace.zero(GF2, 1) for _ in range(3)))
    rep = property_report(zero)
    assert rep.trim and rep.proper and rep.tpoc


def test_global_trim_examples(figures):
    assert global_trim_flags(figures["fig1a"]).state_trim
    assert global_trim_flags(figures["fig1a"]).branch_trim
    gt1b = global_trim_flags(figures["fig1b"])
    assert gt1b.state_trim_at == (True, True, False)
    gt3b = global_trim_flags(figures["fig3b"])
    assert gt3b.branch_trim_at == (True, True, True, True, False)


def test_observable_examples(figures):
    assert observable(figures["fig1a"])
    assert not observable(figures["fig2a"])
    assert not observable(figures["fig4a"])


def test_controllability_audit(figures):
    audit = controllability_audit(figures["fig1a"])
    assert (audit.total_constraint_dim, audit.behavior_dim, audit.total_state_dim) == (6, 2, 4)
    assert audit.controllable
    assert not controllable(figures["fig2b"])
    assert not controllable(figures["fig4b"])


def test_controllability_dimension_test_matches_enumeration(random_set):
    for t in random_set:
        audit = controllability_audit(t)
        assert audit.total_constraint_dim <= audit.behavior_dim + audit.total_state_dim
        assert audit.controllable == brute_observable(dualize(t))


def test_local_flags_match_projection_definitions(figures, random_set):
    """The rank tests agree with the definitions: both adjacent constraints
    project onto S_i, and neither has a branch on S_i alone."""
    for t in [*figures.values(), *random_set]:
        for i in range(t.m):
            prev, d = (i - 1) % t.m, t.state_dims[i]
            lo = t.state_out_offset(prev)
            sides = ((t.constraints[prev], list(range(lo, lo + d))), (t.constraints[i], list(range(d))))
            trim = all(project(c, cols).is_full() for c, cols in sides)
            proper = all(cross_section(c, cols).is_zero() for c, cols in sides)
            assert local_flags(t, i) == (trim, proper)


def test_trim_proper_duality(random_set):
    for t in random_set:
        td = dualize(t)
        for i in range(t.m):
            trim, proper = local_flags(t, i)
            dtrim, dproper = local_flags(td, i)
            assert trim == dproper
            assert proper == dtrim


def test_connected_examples(figures):
    assert not connected(figures["fig2b"]).connected
    assert not connected(figures["fig4b"]).connected
    assert connected(figures["fig1a"]).connected
    for name in ("fig14a", "fig14b"):
        t = figures[name]
        report = connected(t)
        assert not report.connected
        assert controllable(t)
        assert not global_trim_flags(t).state_trim
        assert report.isolated_states == ()


def test_connected_reports_isolated_states():
    # a nontrivial state space whose constraints never use it
    t = Trellis(
        GF2,
        2,
        (1, 1),
        (1, 0),
        (Subspace.zero(GF2, 2), Subspace.zero(GF2, 2)),
    )
    report = connected(t)
    assert report.connected  # only the used vertices count
    assert report.isolated_states == ((0, (1,)),)


def wide_trellis(n: int = 14) -> Trellis:
    """Three n-dimensional state spaces joined by the identity, one free
    symbol per time: 3 * 2^n states and 3 * 2^(n+1) branches."""
    rows = [[int(c in (k, n + 1 + k)) for c in range(2 * n + 1)] for k in range(n)]
    c = Subspace.span(GF2, 2 * n + 1, rows + [[int(q == n) for q in range(2 * n + 1)]])
    return Trellis(GF2, 3, (1, 1, 1), (n, n, n), (c, c, c))


def test_connected_is_undecided_past_the_enumeration_cap(tmp_path, capsys):
    t = wide_trellis()
    start = time.perf_counter()
    assert connected(t) == Connectivity(None, None, ())
    assert time.perf_counter() - start < 0.5
    path = tmp_path / "wide.trellis"
    path.write_text(serialize(t))
    assert main(["analyze", str(path)]) == 0
    assert re.search(r"^connected +undecided$", capsys.readouterr().out, re.M)
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["connected"] is None
    assert time.perf_counter() - start < 10


def test_connected_counts_edges_not_branches(tmp_path, capsys):
    # one state at the single time and 2^31 - 1 branches, all on one edge:
    # decided, while `render`, which draws branches, still refuses it
    text = "field 2147483647\nlength 1\nsymbol-dims 1\nstate-dims 0\n\nconstraint 0\n|5|\n"
    path = tmp_path / "large-field.trellis"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 0
    assert time.perf_counter() - start < 2
    assert re.search(r"^connected       True$", capsys.readouterr().out, re.M)
    with pytest.raises(ValueError):
        render.to_dot(parse(text))


def test_connected_matches_branch_enumeration(figures, random_set):
    for t in [*figures.values(), *random_set]:
        for side in (t, dualize(t)):
            got = connected(side)
            assert (got.connected, got.component_count, got.isolated_states) == oracles.connectivity(side)


def test_render_refuses_past_the_enumeration_cap(tmp_path):
    t = wide_trellis()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="states plus branches"):
        render.to_dot(t)
    path, out = tmp_path / "wide.trellis", tmp_path / "wide.dot"
    path.write_text(serialize(t))
    with pytest.raises(SystemExit) as exit_:
        main(["render", str(path), str(out)])
    assert exit_.value.code == f"error: {path}: more than 65536 states plus branches to draw"
    assert not out.exists()
    assert time.perf_counter() - start < 2
    # below the cap it still draws every branch
    assert render.to_dot(wide_trellis(4)).count(" -> ") == 3 * 2**5


def test_state_trim_controllable_iff_connected(random_set):
    checked = 0
    for t in random_set:
        current = t
        for _ in range(10):
            gt = global_trim_flags(current)
            if gt.state_trim:
                break
            i = next(q for q, ok in enumerate(gt.state_trim_at) if not ok)
            cols = list(
                range(
                    current.state_offset(i),
                    current.state_offset(i) + current.state_dims[i],
                )
            )
            from trellislab.galois import project

            current = trim_to(current, i, project(behavior(current), cols))
        if not global_trim_flags(current).state_trim:
            continue
        assert controllable(current) == connected(current).connected
        checked += 1
    assert checked > 150


def test_merge_trim_status_examples(figures):
    nontrim, nomerge = merge_trim_status(figures["fig1a"])
    assert nontrim and not nomerge
    nontrim, nomerge = merge_trim_status(figures["fig3a"])
    assert nontrim and nomerge
    nontrim, _ = merge_trim_status(figures["fig2a"])
    assert not nontrim  # unobservable, hence trimmable


def test_unobservable_space_iff_dim_gap(random_set):
    for t in random_set:
        su = unobservable_state_space(t)
        gap = behavior(t).dim - realized_code(t).dim
        assert su.is_zero() == (gap == 0)
        assert su.dim == gap
        # the unobservable space is exactly the zero-symbol cross-section
        cols = list(range(t.symbol_total(), t.symbol_total() + t.state_total()))
        assert su == cross_section(behavior(t), cols)


def test_property_report_shape(figures):
    rep = property_report(figures["fig3a"])
    assert rep.tpoc and rep.reduced
    assert rep.behavior_dim == 3 and rep.code_dim == 3
    assert rep.unobservable_state_space.is_zero()


def test_classify_chain_examples(figures):
    r = classify_chain(figures["fig1a"], 2)
    assert r.tsb_poc and not r.ntsb_poc
    r8 = classify_chain(figures["sec8-chain-example"], 2)
    assert r8.ntsb_poc and not r8.irreducible_class and r8.within_chi_window
    conv = classify_chain(figures["fig12a"], 2)
    assert conv.tsb_poc and conv.ntsb_poc and conv.irreducible_class
    assert conv.kv is True
    assert conv.minimal is None


def test_classify_chain_profiles_each_code_once(figures, monkeypatch):
    # one elimination per start for the code and one for its dual: the dual
    # code is profiled on the object that is_kv_trellis shares, not on a
    # second Subspace for the same code
    real_rref, real_profile = reduction.rref, reduction.span_profile
    inside, count = [], [0]

    def rref(mat):
        count[0] += bool(inside)
        return real_rref(mat)

    def span_profile(code):
        inside.append(code)
        try:
            return real_profile(code)
        finally:
            inside.pop()

    monkeypatch.setattr(reduction, "rref", rref)
    monkeypatch.setattr(reduction, "span_profile", span_profile)
    for name, want in (("fig1a", 6), ("sec8-chain-example", 14)):
        fresh = parse(serialize(figures[name]))  # no profile memoized yet
        count[0] = 0
        classify_chain(fresh, 2)
        assert count[0] == want == 2 * fresh.m, name


def test_classify_chain_requires_full_support():
    # a code with an always-zero coordinate
    from trellislab.trellis import Generator, product

    t = product(GF2, [Generator((1, 1, 0), Span(0, 2, 3))], (1, 1, 1))
    with pytest.raises(ValueError):
        classify_chain(t, 2)
