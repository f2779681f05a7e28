"""Transition relations of intervals, and the observability, controllability
and trimness notions the paper attaches to them.

The transition space T of an interval [j,k) is the relation S_j -> S_k of
boundary state pairs joined by a valid path over constraints j..k-1; its
unobservable space U keeps the pairs joined by an all-zero-symbol path.  T
and U are ordered compositions of per-constraint relations: T_i is C_i
projected on its (state-in | state-out) coordinates, U_i is C_i's
cross-section there, the empty interval gives the diagonal of S_j, and a
chain starts from that and the first local relation.  A start's reach, where
its U chain vanishes, is exact if each U_i has a zero forward section, else m-1.
Composing the C_i themselves gives the fragment's external behavior, in
(s_j | a_j ... a_{k-1} | s_k) order: each step appends a_i and moves the end
state.  s_k is a separate coordinate block even when the interval is the
whole axis.  By duality T of t, with its s_k block negated, is the orthogonal
complement of U of the dual over the same interval, and likewise for the
two external behaviors; `reduction` decides its zero-run conditions A/A'
from the dual's U chains this way.

T_i and U_i are kept in C_i's `Subspace.memo` under ("local-transitions", d,
off, part); `compose` keeps its result for a zero or full r of width a + b in
the memo of s, under ("compose", "zero" or "full", a, b), for every chain and
trellis sharing the constraint.  Cache keys in `Trellis._cache` (entries are
immutable once stored; a racing writer only repeats work):
  ("transitions", j, part)  T (part "full"), U ("unobservable") or the
                            external behavior ("external") of [j, j+L) for
                            L = 0, 1, ..., a tuple of prefix compositions
                            grown on demand up to m (the t-profile grows
                            each only up to its threshold);
  "s_unobs"                 the unobservable state configuration space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import (
    Mat,
    Subspace,
    cross_section,
    negate_columns,
    orthogonal,
    project,
    rref,
)
from .trellis import Span, Trellis, behavior, dualize


def _diagonal(t: Trellis, j: int) -> Subspace:
    """The equality relation {(s, s)} on S_j."""
    d = t.state_dims[j]
    rows = tuple(tuple(int(c in (k, d + k)) for c in range(2 * d)) for k in range(d))
    return Subspace(t.field, 2 * d, Mat(t.field, 2 * d, rows))


def compose(r: Subspace, s: Subspace, b: int) -> Subspace:
    """The relation {(x, z) : (x, y) in r and (y, z) in s for some y}, where
    y is the last b coordinates of r and the first b of s.

    A zero r gives 0^a x cross_section(s, z), a full r GF(p)^a x project(s, z),
    both canonical as built and kept in s.memo.  Otherwise the rows (y | x | 0)
    of r's basis and (-y | 0 | z) of s's are reduced together, y columns first:
    the rows that vanish on y span the sums of rows whose y parts cancel."""
    field, p = r.field, r.field.p
    a, c = r.ambient_dim - b, s.ambient_dim - b
    if r.is_zero() or r.is_full():
        key = ("compose", "zero" if r.is_zero() else "full", a, b)
        if key not in s.memo:
            zs = (cross_section if r.is_zero() else project)(s, range(b, b + c))
            rows = tuple(tuple(int(k == i) for k in range(a + c)) for i in range(a if r.is_full() else 0))
            rows += tuple((0,) * a + row for row in zs.basis.entries)
            s.memo[key] = Subspace(field, a + c, Mat(field, a + c, rows))
        return s.memo[key]
    rows = [row[a:] + row[:a] + (0,) * c for row in r.basis.entries]
    rows += [tuple(-y % p for y in row[:b]) + (0,) * a + row[b:] for row in s.basis.entries]
    reduced = rref(Mat(field, b + a + c, tuple(rows)))
    kept = tuple(row[b:] for row in reduced.entries if not any(row[:b]))
    return Subspace(field, a + c, Mat(field, a + c, kept))


def _local_relation(t: Trellis, i: int, part: str) -> Subspace:
    """T_i ("full") or U_i ("unobservable"): C_i projected on, or
    cross-sectioned at, its (state-in | state-out) coordinates; C_i itself
    for the external behavior ("external")."""
    c, d, off = t.constraints[i], t.state_dims[i], t.state_out_offset(i)
    if part == "external":
        return c
    key = ("local-transitions", d, off, part)
    if key not in c.memo:
        cols = [*range(d), *range(off, c.ambient_dim)]
        c.memo[key] = (project if part == "full" else cross_section)(c, cols)
    return c.memo[key]


def _relation_chain(t: Trellis, j: int, length: int, part: str) -> tuple[Subspace, ...]:
    """T ("full"), U ("unobservable") or the external behavior ("external")
    of [j, j+L) for L = 0..length at least, each composed from the one
    before and the next local relation; kept apart, so a query for U never
    composes the wider T."""
    key = ("transitions", j, part)
    chain = t._cache.get(key) or (_diagonal(t, j), _local_relation(t, j, part))
    for n in range(len(chain) - 1, length):
        i = (j + n) % t.m
        chain += (compose(chain[-1], _local_relation(t, i, part), t.state_dims[i]),)
    t._cache[key] = chain
    return chain


def _unobservable_reach(t: Trellis) -> tuple[int, ...]:
    """reach[j]: the least n <= m-2 with U[j, j+n) = 0, else m-1.  Exact, as a zero
    U composes to zero, unless some U_i has a nonzero forward section (a row zero
    on its state-in block, which RREF puts first); then every start gets m-1."""
    m, part = t.m, "unobservable"
    if any(not any(r[: t.state_dims[i]]) for i in range(m) for r in _local_relation(t, i, part).basis.entries):
        return (m - 1,) * m
    reach = (next((n for n in range(m - 1) if _relation_chain(t, j, n, part)[n].is_zero()), m - 1) for j in range(m))
    return tuple(reach)


def transition_relation(t: Trellis, iv: Span, part: str) -> Subspace:
    """T (`part` "full"), U ("unobservable") or the external behavior
    ("external") of the interval."""
    if iv.m != t.m:
        raise ValueError("span axis length does not match the trellis")
    return _relation_chain(t, iv.start, iv.length, part)[iv.length]


def fragment(t: Trellis, iv: Span) -> Subspace:
    """The external behavior of the cut-open fragment over the interval: the
    (s_j | a_j ... a_{k-1} | s_k) boundary of every valid path across it."""
    return transition_relation(t, iv, "external")


def unobservable_state_space(t: Trellis) -> Subspace:
    """The state configurations carried by all-zero symbol trajectories."""
    if "s_unobs" not in t._cache:
        n = t.symbol_total()
        t._cache["s_unobs"] = cross_section(behavior(t), list(range(n, n + t.state_total())))
    return t._cache["s_unobs"]


def is_jk_observable(t: Trellis, iv: Span, generalized: bool = False) -> bool:
    """Interval observability: no nonzero zero-symbol path across the fragment.

    With `generalized` set, zero-symbol paths that are restrictions of global
    all-zero-symbol trajectories are discounted, so the test is against the
    boundary projection of the unobservable state configuration space instead
    of against zero.
    """
    u = transition_relation(t, iv, "unobservable")
    if not generalized:
        return u.is_zero()
    cols = t.state_columns(iv.start, states_only=True)
    cols += t.state_columns(iv.end, states_only=True)
    allowed = project(unobservable_state_space(t), cols)
    return u == allowed


def is_jk_controllable(t: Trellis, iv: Span) -> bool:
    """Interval controllability: every boundary state pair is joined by a path."""
    return transition_relation(t, iv, "full").is_full()


def is_fragment_trim(t: Trellis, iv: Span) -> bool:
    """Every valid path across the fragment extends to a closed trajectory,
    tested as containment of the two complementary transition spaces."""
    here = transition_relation(t, iv, "full")
    there = transition_relation(t, iv.complement(), "full")
    dj = t.state_dims[iv.start]
    swapped = Subspace.span(
        t.field, here.ambient_dim, [row[dj:] + row[:dj] for row in here.basis.entries]
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
    dj, dk = t.state_dims[iv.start], t.state_dims[iv.end]
    na = sum(t.symbol_dims[i] for i in iv.times())
    lhs = negate_columns(transition_relation(td, iv, "full"), range(dj, dj + dk))
    rhs = orthogonal(transition_relation(t, iv, "unobservable"))
    ext_dual_flipped = negate_columns(fragment(td, iv), range(dj + na, dj + na + dk))
    ext_ok = ext_dual_flipped == orthogonal(fragment(t, iv))
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


def t_observability_profile(t: Trellis) -> MemoryProfile:
    """Per-t interval observability and controllability flags, read off the
    transition chains of every start.  The dual's flags compose the dual
    trellis's own constraints; by duality the observable flags must equal the
    dual's controllable ones and the controllable the dual's observable ones,
    and a mismatch raises.

    Both flags are monotone in the length L >= 1, for any linear trellis.  If
    every U of length L is zero, a zero-symbol path over [j, j+L+1) restricts
    to ones over [j, j+L) and [j+1, j+L+1), so both its ends are zero.  If
    every T of length L is full, x in S_j has a branch to some y, and the full
    T[j+1, j+L+1) joins y to every z.  So each side and part has one
    threshold, the least L at which every start holds (m + 1 if none does),
    found by growing each start's chain only up to the length being tried."""

    def flags(tr: Trellis, part: str, holds) -> dict[int, bool]:
        lengths = range(1, tr.m + 1)
        threshold = next(
            (n for n in lengths if all(holds(_relation_chain(tr, j, n, part)[n]) for j in range(tr.m))),
            tr.m + 1,
        )
        return {n: n >= threshold for n in lengths}

    def profile(tr: Trellis) -> tuple[dict[int, bool], dict[int, bool]]:
        return flags(tr, "unobservable", Subspace.is_zero), flags(tr, "full", Subspace.is_full)

    obs, ctr = profile(t)
    dobs, dctr = profile(dualize(t))
    if obs != dctr or ctr != dobs:
        raise RuntimeError("interval observability disagrees with dual controllability")
    return MemoryProfile(obs, ctr, dobs, dctr)
