from trellislab.corpus import (
    build_corpus,
    default_corpus_dir,
    load_chain,
    verify_corpus,
)
from trellislab import specfile
from trellislab.trellis import validate
from trellislab.galois import Subspace


def test_bundled_files_match_programmatic_build():
    bundle = build_corpus()
    directory = default_corpus_dir()
    for name, t in bundle.trellises.items():
        assert (directory / f"{name}.trellis").read_text() == specfile.serialize(t)
    for name, records in bundle.chains.items():
        assert load_chain(directory, f"chains/{name}.jsonl") == records


def test_every_entry_is_valid():
    bundle = build_corpus()
    assert len(bundle.trellises) == 21
    for t in bundle.trellises.values():
        assert validate(t) == []


def test_verify_corpus_all_pass():
    results = verify_corpus()
    assert len(results) == 21
    for r in results:
        assert not r.failed, (r.entry_id, r.failed)


def test_only_filter():
    results = verify_corpus(only={"fig7"})
    assert len(results) == 1 and results[0].entry_id == "fig7"


def _zero_component_state_sets(t):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in range(t.m):
        nxt = (i + 1) % t.m
        dl = t.state_dims[i]
        da = t.symbol_dims[i]
        for br in t.constraints[i].vectors():
            union((i, br[:dl]), (nxt, br[dl + da:]))
    zero_roots = {find((i, tuple([0] * t.state_dims[i]))) for i in range(t.m)}
    sets = {i: set() for i in range(t.m)}
    for i in range(t.m):
        for v in Subspace.full(t.field, t.state_dims[i]).vectors():
            if (i, v) in parent and find((i, v)) in zero_roots:
                sets[i].add(v)
    return sets


def _sets_are_linear(t, sets):
    p = t.field.p
    for vs in sets.values():
        for a in vs:
            for b in vs:
                if tuple((x + y) % p for x, y in zip(a, b)) not in vs:
                    return False
    return True


def test_disconnected_witness_components():
    bundle = build_corpus()
    a = bundle.trellises["fig14a"]
    b = bundle.trellises["fig14b"]
    sets_a = _zero_component_state_sets(a)
    assert _sets_are_linear(a, sets_a)
    # the second witness has a zero component that is not a linear subtrellis
    sets_b = _zero_component_state_sets(b)
    assert not _sets_are_linear(b, sets_b)
