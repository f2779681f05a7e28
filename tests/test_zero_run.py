"""Zero-run sites: argument range, conditions A/A' against path enumeration
and against the transition-space reading they replaced, the site grid pruned
by each start's unobservable reach against the full grid, and the driver's
step records and witness searches on the benchmark draws."""

import hashlib
import json

import pytest
from hypothesis import assume, given, settings

from trellislab import reduction
from trellislab.galois import Subspace, cross_section
from trellislab.specfile import parse, serialize
from trellislab.trellis import Span, dualize
from trellislab.fragments import _local_relation, _unobservable_reach, transition_relation
from trellislab.reduction import (
    _zero_run_sites,
    condition_A,
    condition_A_prime,
    find_zero_run_witness,
    is_kv_trellis,
    reduce_driver,
    zero_run_reduce,
)

import oracles
from conftest import trellises


# --- one range check ------------------------------------------------------------

def test_zero_run_arguments_share_one_range_check(figures):
    fig7 = figures["fig7"]  # m = 9
    pair = find_zero_run_witness(fig7, 0, 3)[0]
    for tlen in (0, 1, 9, 10):
        with pytest.raises(ValueError, match="between 2 and m-1"):
            find_zero_run_witness(fig7, 0, tlen)
        with pytest.raises(ValueError, match="between 2 and m-1"):
            condition_A(fig7, 0, tlen, pair)
        with pytest.raises(ValueError, match="between 2 and m-1"):
            condition_A_prime(fig7, 0, tlen, pair)
        with pytest.raises(ValueError, match="between 2 and m-1"):
            zero_run_reduce(fig7, 0, tlen)
    # the start is taken mod m, as trim_to takes its index
    assert find_zero_run_witness(fig7, 9, 3) == find_zero_run_witness(fig7, 0, 3)
    assert find_zero_run_witness(fig7, -9, 3) == find_zero_run_witness(fig7, 0, 3)
    assert condition_A(fig7, 9, 3, pair) == condition_A(fig7, 0, 3, pair) is True
    assert condition_A_prime(fig7, 9, 3, pair) == condition_A_prime(fig7, 0, 3, pair)
    wrapped, plain = zero_run_reduce(fig7, 9, 3), zero_run_reduce(fig7, 0, 3)
    assert [s.record() for s in wrapped] == [s.record() for s in plain]


# --- conditions A / A' against path enumeration ----------------------------------

def _boundary_pairs(t, start: int, length: int) -> set:
    """(s_start, s_end) of every valid path over [start, start+length)."""
    d0, d1 = t.state_dims[start % t.m], t.state_dims[(start + length) % t.m]
    return {
        (states[:d0], states[len(states) - d1:])
        for _, states in oracles.enumerate_fragment_paths(t, start, length)
    }


def test_conditions_match_path_enumeration(figures, random_set):
    """A holds iff no path over [k, k+tlen-1) runs from s_k to the zero state;
    A' iff no path over [k+1, k+tlen) runs from the zero state to s_j.  Every
    boundary pair in S_j x S_k is checked, which covers every pair of U."""
    checked = {2: 0, 3: 0}
    held = {"A": 0, "A-prime": 0}
    for base in [t for t in [*figures.values(), *random_set] if t.m >= 3]:
        for t in (base, dualize(base)):
            m, p, dims = t.m, t.field.p, t.state_dims
            for tlen in range(2, m):
                for j in range(m):
                    k = (j - tlen) % m
                    into_zero = _boundary_pairs(t, k, tlen - 1)
                    from_zero = _boundary_pairs(t, k + 1, tlen - 1)
                    zero_before, zero_after = (0,) * dims[(j - 1) % m], (0,) * dims[(k + 1) % m]
                    for s_j in oracles.all_vectors(p, dims[j]):
                        for s_k in oracles.all_vectors(p, dims[k]):
                            a = (s_k, zero_before) not in into_zero
                            a_prime = (zero_after, s_j) not in from_zero
                            assert condition_A(t, j, tlen, (s_j, s_k)) == a
                            assert condition_A_prime(t, j, tlen, (s_j, s_k)) == a_prime
                            held["A"] += a
                            held["A-prime"] += a_prime
                            checked[p] += 1
    assert checked[2] and checked[3]
    assert held["A"] and held["A-prime"]


# --- the site search against the transition-space conditions --------------------

def _reference_condition_A(t, j, tlen, witness_pair) -> bool:
    m = t.m
    k = (j + m - tlen) % m
    _, s_k = witness_pair
    trans = transition_relation(t, Span(k, tlen - 1, m), "full")
    target = list(s_k) + [0] * t.state_dims[(j - 1) % m]
    return not trans.contains(target)


def _reference_condition_A_prime(t, j, tlen, witness_pair) -> bool:
    m = t.m
    k = (j + m - tlen) % m
    s_j, _ = witness_pair
    trans = transition_relation(t, Span((k + 1) % m, tlen - 1, m), "full")
    target = [0] * t.state_dims[(k + 1) % m] + list(s_j)
    return not trans.contains(target)


def _reference_witness(t, j, tlen):
    """The witness search as it read conditions A/A' off T chains of t."""
    m = t.m
    u = transition_relation(t, Span(j, m - tlen, m), "unobservable")
    if u.is_zero():
        return None
    dj = t.state_dims[j]
    pairs = [
        (tuple(v[:dj]), tuple(v[dj:]))
        for v in u.sorted_vectors()
        if any(v[:dj]) and any(v[dj:])
    ]
    for cond, name in ((_reference_condition_A, "A"), (_reference_condition_A_prime, "A-prime")):
        for pair in pairs:
            if cond(t, j, tlen, pair):
                return pair, name
    return None


def _reference_sites(t):
    for tlen in range(2, t.m):
        for j in range(t.m):
            for side in (t, dualize(t)):
                if _reference_witness(side, j, tlen) is not None:
                    yield side, j, tlen


def test_site_search_matches_transition_space_conditions(figures, random_set, built_steps):
    """Every (side, j, tlen) witness and the whole site sequence agree with
    the T-chain reading, on the corpus, the random set and every trellis a
    driver run on them builds."""
    trellises = []
    for t in [*figures.values(), *random_set]:
        built_steps.clear()
        reduce_driver(t)
        trellises += [t, *(s.result for s in built_steps)]
    sites, found = 0, set()
    for t in trellises:
        for side in (t, dualize(t)):
            for tlen in range(2, t.m):
                for j in range(t.m):
                    got = find_zero_run_witness(side, j, tlen)
                    assert got == _reference_witness(side, j, tlen)
                    sites += 1
                    if got is not None:
                        found.add((side is t, got[1]))
        assert [(s is t, j, tlen) for s, j, tlen in _zero_run_sites(t)] == [
            (s is t, j, tlen) for s, j, tlen in _reference_sites(t)
        ]
    assert sites > 10000
    assert found == {(True, "A"), (True, "A-prime"), (False, "A"), (False, "A-prime")}


# --- the grid pruned by the unobservable reach -----------------------------------

def _fresh_sides(figures, random_set):
    """Every corpus and random trellis and its dual, parsed anew so that no
    chain is cached."""
    return [parse(serialize(side)) for t in [*figures.values(), *random_set] for side in (t, dualize(t))]


def _sites(t, search) -> list:
    return [(s is t, j, tlen) for s, j, tlen in search(t)]


def _forward_sections_zero(t) -> bool:
    """Whether every U_i has a zero forward section {z : (0, z) in U_i}."""
    for i in range(t.m):
        u = _local_relation(t, i, "unobservable")
        if not cross_section(u, range(t.state_dims[i], u.ambient_dim)).is_zero():
            return False
    return True


def test_pruned_site_search_matches_full_grid(figures, random_set):
    """The pruned search, run first on trellises with no chain cached, yields
    the site sequence of the full grid, on either side of the pruning case."""
    cases = {True: 0, False: 0}
    for t in _fresh_sides(figures, random_set):
        assert _sites(t, _zero_run_sites) == _sites(t, _reference_sites)
        if t.m >= 3:
            cases[_forward_sections_zero(t) and _forward_sections_zero(dualize(t))] += 1
    assert cases[True] and cases[False]


@settings(max_examples=200, deadline=None)
@given(trellises())
def test_pruned_site_search_matches_full_grid_on_any_trellis(t):
    """Hypothesis-drawn trellises need not be proper, so many take the m-1
    reach; the bound on the state dims only sizes the reference's pair
    enumeration, as conftest's random set is sized."""
    assume(t.field.p ** (2 * max(t.state_dims)) <= 729)
    for side in (t, dualize(t)):
        fresh = parse(serialize(side))
        assert _sites(fresh, _zero_run_sites) == _sites(fresh, _reference_sites)


def test_reach_is_where_each_unobservable_chain_vanishes(figures, random_set):
    """With zero forward sections, reach[j] is the least n <= m-2 with
    U[j, j+n) = 0 and every U[j, j+L) for reach[j] <= L <= m-2 is zero; with a
    nonzero forward section every start gets m-1."""
    cases = {True: 0, False: 0}
    for t in _fresh_sides(figures, random_set):
        m, reach = t.m, _unobservable_reach(t)
        pruning = _forward_sections_zero(t)
        cases[pruning] += 1
        if not pruning:
            assert reach == (m - 1,) * m
            continue
        for j in range(m):
            zero = [transition_relation(t, Span(j, n, m), "unobservable").is_zero() for n in range(m - 1)]
            assert reach[j] == next((n for n, z in enumerate(zero) if z), m - 1)
            assert all(zero[reach[j]:])
    assert cases[True] and cases[False]
    fig14b_dual = dualize(figures["fig14b"])
    assert not _forward_sections_zero(fig14b_dual)
    assert _unobservable_reach(fig14b_dual) == (1, 1)


# --- no enumeration of the code ---------------------------------------------------

def test_is_kv_trellis_never_enumerates_the_code(figures, monkeypatch):
    enumerated = []
    original = Subspace.vectors

    def recorded(self):
        enumerated.append(self)
        return original(self)

    monkeypatch.setattr(Subspace, "vectors", recorded)
    # the one candidate is read off cross-sections of the behavior; only the
    # isomorphism test lists its solution kernel, which is zero because the
    # candidate is observable and fig9 is state-trim
    for name, want in (("fig7", False), ("fig9", True)):
        t = parse(serialize(figures[name]))  # fresh caches
        enumerated.clear()
        assert is_kv_trellis(t) is want
        assert all(d.dim == 0 for d in enumerated)


# --- benchmark draws that take a zero-run step ---------------------------------

# sha256 of json.dumps(reduce_driver(t).records(), sort_keys=True) for the
# default-seed reduce-gf2 draws d0 (merge, zero-run, trim) and d8 (zero-run,
# trim), both taking the zero-run step on the primal side under Condition A.
BENCH_DRAW_DIGESTS = {
    0: "e632d5f78238902b031cebf5e6a140032a196499904ab860c54230b756788c02",
    8: "913213165713e1506d575dce5cd3bba369c5c58e80e0914371ec85c7a0675bf2",
}


def test_driver_step_records_pinned_on_bench_zero_run_draws(bench_inputs, tmp_path):
    paths = bench_inputs.write_family("reduce-gf2", bench_inputs.DEFAULT_SEED, tmp_path)
    for draw, digest in BENCH_DRAW_DIGESTS.items():
        report = reduce_driver(parse(paths[draw].read_text()))
        zero_runs = [r for r in report.records() if r["kind"] == "zero-run"]
        assert len(zero_runs) == 1, draw
        records = json.dumps(report.records(), sort_keys=True)
        assert hashlib.sha256(records.encode()).hexdigest() == digest, draw


# sha256 of json.dumps([reduce_driver(t).records() for the first 16
# default-seed reduce-gf2 draws], sort_keys=True), recorded when every grid
# site was searched (7,324 witness searches).
FIRST_16_RECORDS_DIGEST = "879c4c12810729e3f601255553be0668f0f82eb370ddfd6d6999f153f540fde6"


def test_driver_searches_few_zero_run_witnesses_on_bench_draws(bench_inputs, tmp_path, monkeypatch):
    """A count, not a timing: the pruned grid leaves at most one witness
    search per draw, and the step records stay the same."""
    paths = bench_inputs.write_family("reduce-gf2", bench_inputs.DEFAULT_SEED, tmp_path)[:16]
    calls = []
    original = reduction.find_zero_run_witness

    def counted(t, j, tlen):
        calls.append((j, tlen))
        return original(t, j, tlen)

    monkeypatch.setattr(reduction, "find_zero_run_witness", counted)
    records = [reduce_driver(parse(path.read_text())).records() for path in paths]
    assert len(calls) <= 16
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == FIRST_16_RECORDS_DIGEST
