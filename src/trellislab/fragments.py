"""Trellis fragments: cut-open sub-trellises, transition spaces, and the
observability/controllability/trimness notions attached to intervals.

A fragment over [j,k) keeps the symbols and constraints with indices in the
interval and the states s_j..s_k, where s_k is a separate coordinate block
even when the interval is the whole axis.  The empty interval is the single
cut edge S_j with an equality constraint between its two half-edges.

Fragments are memoized per trellis under (start, length) keys; entries are
immutable once stored, so concurrent readers are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import (
    Mat,
    Subspace,
    cross_section,
    kernel,
    negate_columns,
    orthogonal,
    project,
)
from .trellis import Span, Trellis, _scatter_checks, behavior, dualize


@dataclass(frozen=True)
class Fragment:
    parent: Trellis
    interval: Span
    internal_behavior: Subspace
    external_behavior: Subspace

    @property
    def symbol_width(self) -> int:
        return sum(self.parent.symbol_dims[i] for i in self.interval.times())

    @property
    def entry_dim(self) -> int:
        return self.parent.state_dims[self.interval.start]

    @property
    def exit_dim(self) -> int:
        return self.parent.state_dims[self.interval.end]


@dataclass(frozen=True)
class TransitionSpaces:
    """Projection (T) and cross-section (U) of the external behavior on the
    boundary state pair; U is the zero-symbol part, so U is contained in T and
    equals T exactly when the fragment carries no symbol coordinates."""

    full: Subspace
    unobservable: Subspace


def fragment(t: Trellis, iv: Span) -> Fragment:
    if iv.m != t.m:
        raise ValueError("span axis length does not match the trellis")
    key = ("fragment", iv.start, iv.length)
    cached = t._cache.get(key)
    if cached is not None:
        return cached
    if iv.length == 0:
        d = t.state_dims[iv.start]
        rows = []
        for k in range(d):
            v = [0] * (2 * d)
            v[k] = 1
            v[d + k] = 1
            rows.append(v)
        diag = Subspace.span(t.field, 2 * d, rows)
        frag = Fragment(t, iv, diag, diag)
        t._cache[key] = frag
        return frag

    times = iv.times()
    sym_width = sum(t.symbol_dims[i] for i in times)
    state_blocks = [t.state_dims[(iv.start + u) % t.m] for u in range(iv.length + 1)]
    state_width = sum(state_blocks)
    n = sym_width + state_width

    sym_off = {}
    acc = 0
    for i in times:
        sym_off[i] = acc
        acc += t.symbol_dims[i]
    st_off = [sym_width]
    for d in state_blocks[:-1]:
        st_off.append(st_off[-1] + d)

    rows = []
    for u, i in enumerate(times):
        rows += _scatter_checks(t, i, n, (st_off[u], sym_off[i], st_off[u + 1]))
    internal = kernel(Mat.from_rows(t.field, n, rows))
    keep = list(range(sym_width))
    keep += list(range(st_off[0], st_off[0] + state_blocks[0]))
    keep += list(range(st_off[-1], st_off[-1] + state_blocks[-1]))
    external = project(internal, keep)
    frag = Fragment(t, iv, internal, external)
    t._cache[key] = frag
    return frag


def transition_spaces(f: Fragment) -> TransitionSpaces:
    na = f.symbol_width
    cols = list(range(na, na + f.entry_dim + f.exit_dim))
    return TransitionSpaces(
        full=project(f.external_behavior, cols),
        unobservable=cross_section(f.external_behavior, cols),
    )


def unobservable_state_space(t: Trellis) -> Subspace:
    """The state configurations carried by all-zero symbol trajectories."""
    cached = t._cache.get("s_unobs")
    if cached is not None:
        return cached
    b = behavior(t)
    cols = list(range(t.symbol_total(), t.symbol_total() + t.state_total()))
    result = cross_section(b, cols)
    t._cache["s_unobs"] = result
    return result


def is_jk_observable(t: Trellis, iv: Span, generalized: bool = False) -> bool:
    """Interval observability: no nonzero zero-symbol path across the fragment.

    With `generalized` set, zero-symbol paths that are restrictions of global
    all-zero-symbol trajectories are discounted, so the test is against the
    boundary projection of the unobservable state configuration space instead
    of against zero.
    """
    u = transition_spaces(fragment(t, iv)).unobservable
    if not generalized:
        return u.is_zero()
    cols = t.state_columns(iv.start, states_only=True)
    cols += t.state_columns(iv.end, states_only=True)
    allowed = project(unobservable_state_space(t), cols)
    return u == allowed


def is_jk_controllable(t: Trellis, iv: Span) -> bool:
    """Interval controllability: every boundary state pair is joined by a path."""
    return transition_spaces(fragment(t, iv)).full.is_full()


def is_fragment_trim(t: Trellis, iv: Span) -> bool:
    """Every valid path across the fragment extends to a closed trajectory,
    tested as containment of the two complementary transition spaces."""
    here = transition_spaces(fragment(t, iv)).full
    there = transition_spaces(fragment(t, iv.complement())).full
    dj = t.state_dims[iv.start]
    swapped = Subspace.span(
        t.field,
        here.ambient_dim,
        [tuple(row[dj:]) + tuple(row[:dj]) for row in here.basis.entries],
    )
    return there.contains_space(swapped)


@dataclass(frozen=True)
class FragmentDuality:
    """Both sides of the transition-space duality equation for one interval."""

    sign_adjusted_dual_transitions: Subspace
    orthogonal_of_unobservable: Subspace
    dual_external_matches: bool

    @property
    def holds(self) -> bool:
        return self.sign_adjusted_dual_transitions == self.orthogonal_of_unobservable


def check_fragment_duality(t: Trellis, iv: Span) -> FragmentDuality:
    """Transition-space duality: the sign-adjusted dual transition space equals
    the orthogonal complement of the unobservable transition space, and the
    sign-adjusted dual external behavior equals the orthogonal complement of
    the external behavior.  A mismatch indicates a bug and raises."""
    td = dualize(t)
    prim = fragment(t, iv)
    dual = fragment(td, iv)
    dj = t.state_dims[iv.start]
    dk = t.state_dims[iv.end]

    t_dual = transition_spaces(dual).full
    lhs = negate_columns(t_dual, range(dj, dj + dk))
    rhs = orthogonal(transition_spaces(prim).unobservable)
    na = prim.symbol_width
    ext_dual_flipped = negate_columns(
        dual.external_behavior, range(na + dj, na + dj + dk)
    )
    ext_ok = ext_dual_flipped == orthogonal(prim.external_behavior)
    result = FragmentDuality(lhs, rhs, ext_ok)
    if not result.holds or not ext_ok:
        raise RuntimeError(
            f"fragment duality failed on interval start={iv.start} len={iv.length}"
        )
    return result


@dataclass(frozen=True)
class MemoryProfile:
    """Per-length interval observability/controllability, for the trellis and
    its dual.  Length t is satisfied only if every start position is."""

    observable: dict[int, bool]
    controllable: dict[int, bool]
    dual_observable: dict[int, bool]
    dual_controllable: dict[int, bool]


def _compose_external(
    t: Trellis, ext: Subspace, na: int, dj: int, dmid: int, i: int
) -> Subspace:
    """Join an external behavior (A^w x S_j x S_mid) with constraint C_i over
    the shared state S_mid, eliminating it."""
    da = t.symbol_dims[i]
    dnext = t.state_dims[(i + 1) % t.m]
    n = na + dj + dmid + da + dnext
    rows = [list(h) + [0] * (da + dnext) for h in orthogonal(ext).basis.entries]
    rows += _scatter_checks(t, i, n, (na + dj, na + dj + dmid, na + dj + dmid + da))
    joint = kernel(Mat.from_rows(t.field, n, rows))
    keep = list(range(na))
    keep += list(range(na + dj + dmid, na + dj + dmid + da))
    keep += list(range(na, na + dj))
    keep += list(range(na + dj + dmid + da, n))
    return project(joint, keep)


def t_observability_profile(t: Trellis) -> MemoryProfile:
    """Per-t interval observability and controllability flags, computed by
    composing adjacent fragments instead of m independent solves."""

    def profile(tr: Trellis) -> tuple[dict[int, bool], dict[int, bool]]:
        obs = {length: True for length in range(1, tr.m + 1)}
        ctr = {length: True for length in range(1, tr.m + 1)}
        for j in range(tr.m):
            ext = fragment(tr, Span(j, 1, tr.m)).external_behavior
            na = tr.symbol_dims[j]
            dj = tr.state_dims[j]
            for length in range(1, tr.m + 1):
                dmid = tr.state_dims[(j + length) % tr.m]
                cols = list(range(na, na + dj + dmid))
                u = cross_section(ext, cols)
                if not u.is_zero():
                    obs[length] = False
                if not project(ext, cols).is_full():
                    ctr[length] = False
                if length < tr.m:
                    i = (j + length) % tr.m
                    ext = _compose_external(tr, ext, na, dj, dmid, i)
                    na += tr.symbol_dims[i]
        return obs, ctr

    obs, ctr = profile(t)
    dobs, dctr = profile(dualize(t))
    return MemoryProfile(obs, ctr, dobs, dctr)
