"""The t-profile read off one threshold length per side and part: against the
full grid of chains it replaced, on fixed and on Hypothesis-drawn trellises,
how far it grows the chains, and the `analyze --t-profile` output on the
benchmark draws."""

import hashlib

from hypothesis import given, settings

from trellislab import cli
from trellislab.fragments import MemoryProfile, _relation_chain, t_observability_profile
from trellislab.specfile import parse, serialize
from trellislab.trellis import Trellis, dualize

from conftest import trellises


def _reference_profile(t: Trellis) -> MemoryProfile:
    """The profile as it composed every start's chains out to m and ANDed
    the flags of every (start, length)."""

    def profile(tr):
        obs = {length: True for length in range(1, tr.m + 1)}
        ctr = dict(obs)
        for j in range(tr.m):
            full = _relation_chain(tr, j, tr.m, "full")
            unobs = _relation_chain(tr, j, tr.m, "unobservable")
            for length in obs:
                obs[length] = obs[length] and unobs[length].is_zero()
                ctr[length] = ctr[length] and full[length].is_full()
        return obs, ctr

    return MemoryProfile(*profile(t), *profile(dualize(t)))


def _threshold(flags: dict[int, bool]) -> int:
    return min((length for length, ok in flags.items() if ok), default=len(flags) + 1)


# --- against the full grid -------------------------------------------------------

def test_profile_matches_full_grid(figures, random_set, bench_inputs, tmp_path):
    draws = bench_inputs.write_family("analyze-gf3", bench_inputs.DEFAULT_SEED, tmp_path)
    bases = [*figures.values(), *random_set, *(parse(path.read_text()) for path in draws)]
    # a threshold strictly inside 2..m, where a shifted or per-start threshold shows
    inner = 0
    for base in bases:
        for t in (base, dualize(base)):
            fresh = parse(serialize(t))
            prof = t_observability_profile(fresh)
            assert prof == _reference_profile(fresh)
            inner += sum(1 < _threshold(flags) <= t.m for flags in (prof.observable, prof.controllable))
    assert len(bases) == len(figures) + len(random_set) + 12
    assert inner > 50


# --- property-based ----------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(trellises())
def test_profile_matches_full_grid_on_any_trellis(t):
    prof = t_observability_profile(t)  # raises if the cross-check fails
    assert prof.observable == prof.dual_controllable
    assert prof.controllable == prof.dual_observable
    assert prof == _reference_profile(parse(serialize(t)))


# --- the saving --------------------------------------------------------------------

def test_profile_grows_chains_only_to_each_threshold(figures):
    grown = capped = 0
    for base in figures.values():
        t = parse(serialize(base))  # fresh caches
        prof = t_observability_profile(t)
        for tr, obs, ctr in (
            (t, prof.observable, prof.controllable),
            (dualize(t), prof.dual_observable, prof.dual_controllable),
        ):
            limit = {"unobservable": min(_threshold(obs), tr.m), "full": min(_threshold(ctr), tr.m)}
            capped += sum(limit.values()) < 2 * tr.m
            for key, chain in tr._cache.items():
                if isinstance(key, tuple) and key[0] == "transitions":
                    assert len(chain) <= limit[key[2]] + 1, key
                    grown += 1
    assert grown and capped > 10


# --- benchmark draws ----------------------------------------------------------------

# sha256 of the stdout of `analyze FILE --t-profile --format json` for the
# default-seed analyze-gf3 draws d0..d11, recorded before the profile read
# thresholds instead of the full grid.
BENCH_DRAW_DIGESTS = [
    "7696cdadbae3a02b935b3132d868959bfbc11ce5919b6ee05e9dca8f757fa537",
    "824ed5bbcd97d38fcc166d61136850764c10b90cce6b2de5236fd18fd1177730",
    "772229640fbb1f919ea6641bd2069068b96828171715672c33eb62558b6778cf",
    "42c292bd7aa73e8c9d98cec5d4bf20bf9465341d9f65ecce017d51fe8182ca7b",
    "4513006ce249de589e8310a40888fa728ffe49e6eaca016713699b994c947dc4",
    "ee6f54e1ffa109af92e33da0a7ae483d3578d8951b274aa137e27df2c92239d8",
    "f3371b78588f9f5f6d9228734791843c2dc49adb294c7953b4cb24626f0440c1",
    "956eb02284162b6b48ad19b651329db76b2e52d64297cc79c4dee863e9cd0419",
    "1602fbc541f165f2ca64bc4019c6355da09960fa7cbc047fead3cf95a27380c6",
    "2ffbf926d501c23b171de7bdfa67eb0b1a472a6a0e3930bb4fd19217b4f0e740",
    "db2323bb90a13ee908b1b0ba2f2642e7537d96e02bf18171e6a058f096e846d9",
    "501de5440c22eaee51d97988101dbd46476402dc488650bd53c3d70d039d633e",
]


def test_analyze_t_profile_pinned_on_bench_draws(bench_inputs, tmp_path, capsys):
    paths = bench_inputs.write_family("analyze-gf3", bench_inputs.DEFAULT_SEED, tmp_path)
    assert len(paths) == len(BENCH_DRAW_DIGESTS)
    for draw, (path, digest) in enumerate(zip(paths, BENCH_DRAW_DIGESTS)):
        assert cli.main(["analyze", str(path), "--t-profile", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, draw
