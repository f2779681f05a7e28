"""Local and global trellis property predicates.

Controllability is deliberately computed twice, by the total-dimension test
and by observability of the dual, and the two verdicts are cross-asserted;
a disagreement is a bug in the linear algebra, not a property of the input.

Cache keys in `Trellis._cache`: "global-trim" (the `GlobalTrim` flags) and
"property-report" (the `PropertyReport`).  In a constraint's `Subspace.memo`,
("block-ranks", offset, d) keeps the two rank facts `local_flags` reads off
the d-column state block at that offset, so a constraint that a reduction
step leaves alone is not re-ranked in the next trellis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import Mat, Subspace, cross_section, orthogonal, project, rank
from .trellis import Trellis, behavior, dualize, realized_code
from .fragments import _local_relation, unobservable_state_space


def _adjacent_onto_state(t: Trellis, i: int, op) -> tuple[Subspace, Subspace]:
    """`op` (project or cross_section) of C_{i-1} and of C_i onto their S_i
    coordinates."""
    prev = (i - 1) % t.m
    lo = t.state_out_offset(prev)
    return (
        op(t.constraints[prev], list(range(lo, lo + t.state_dims[i]))),
        op(t.constraints[i], list(range(t.state_dims[i]))),
    )


def local_flags(t: Trellis, i: int) -> tuple[bool, bool]:
    """(trim at S_i, proper at S_i): both adjacent constraints project onto
    S_i (their S_i columns have rank dim S_i), and neither has a branch
    supported on S_i alone (their other columns keep rank dim C)."""
    prev, d = (i - 1) % t.m, t.state_dims[i]
    facts = [_block_facts(t.constraints[prev], t.state_out_offset(prev), d), _block_facts(t.constraints[i], 0, d)]
    return all(f[0] for f in facts), all(f[1] for f in facts)


def _block_facts(c: Subspace, lo: int, d: int) -> tuple[bool, bool]:
    """(rank of c on columns lo..lo+d-1 is d, rank on the other columns is
    dim c), kept in c.memo."""
    key = ("block-ranks", lo, d)
    if key not in c.memo:
        off = [k for k in range(c.ambient_dim) if not lo <= k < lo + d]
        c.memo[key] = (_column_rank(c, range(lo, lo + d)) == d, _column_rank(c, off) == c.dim)
    return c.memo[key]


def _column_rank(s: Subspace, cols) -> int:
    return rank(Mat(s.field, len(cols), tuple(tuple(row[k] for k in cols) for row in s.basis.entries)))


@dataclass(frozen=True)
class GlobalTrim:
    state_trim_at: tuple[bool, ...]
    branch_trim_at: tuple[bool, ...]

    @property
    def state_trim(self) -> bool:
        return all(self.state_trim_at)

    @property
    def branch_trim(self) -> bool:
        return all(self.branch_trim_at)


def global_trim_flags(t: Trellis) -> GlobalTrim:
    """Whether every state (resp. branch) lies on a valid trajectory."""
    if "global-trim" not in t._cache:
        b = behavior(t)
        t._cache["global-trim"] = GlobalTrim(
            tuple(project(b, t.state_columns(i)).is_full() for i in range(t.m)),
            tuple(project(b, t.branch_columns(i)) == t.constraints[i] for i in range(t.m)),
        )
    return t._cache["global-trim"]


def observable(t: Trellis) -> bool:
    """One trajectory per codeword; equivalently the unobservable state
    configuration space is trivial."""
    return behavior(t).dim == realized_code(t).dim


@dataclass(frozen=True)
class ControlAudit:
    total_constraint_dim: int
    behavior_dim: int
    total_state_dim: int

    @property
    def controllable(self) -> bool:
        return self.total_constraint_dim == self.behavior_dim + self.total_state_dim


def controllable(t: Trellis) -> bool:
    return controllability_audit(t).controllable


def controllability_audit(t: Trellis) -> ControlAudit:
    """Dimension test for controllability, cross-checked against dual
    observability."""
    audit = ControlAudit(
        total_constraint_dim=sum(c.dim for c in t.constraints),
        behavior_dim=behavior(t).dim,
        total_state_dim=t.state_total(),
    )
    if audit.controllable != observable(dualize(t)):
        raise RuntimeError(
            "controllability dimension test disagrees with dual observability"
        )
    return audit


def is_tpoc(t: Trellis) -> bool:
    """`PropertyReport.tpoc` without the report's costlier properties."""
    return all(all(local_flags(t, i)) for i in range(t.m)) and observable(t) and controllable(t)


@dataclass(frozen=True)
class Connectivity:
    connected: bool | None
    component_count: int | None
    isolated_states: tuple[tuple[int, tuple[int, ...]], ...]


MAX_CONNECTED_ENUMERATED = 2**16


def past_enumeration_cap(p: int, dims) -> bool:
    """Whether spaces of these dims over GF(p) have more than
    MAX_CONNECTED_ENUMERATED members in all, each exponent clipped so the
    sum stays small: `connected` counts states plus edges, `render` states
    plus branches."""
    top = MAX_CONNECTED_ENUMERATED.bit_length()
    return sum(p ** min(d, top) for d in dims) > MAX_CONNECTED_ENUMERATED


def connected(t: Trellis) -> Connectivity:
    """Connectivity of the trellis diagram on states incident to at least one
    branch; states incident to none are reported on the side instead of
    breaking connectivity.  A branch joins its (state-in, state-out) pair, so
    the edges are the members of the local transition relations T_i, not the
    branches, which a symbol space can make many more.  Past the enumeration
    cap on states plus edges it is undecided: None for `connected` and
    `component_count`."""
    edges = [_local_relation(t, i, "full") for i in range(t.m)]
    if past_enumeration_cap(t.field.p, [*t.state_dims, *(e.dim for e in edges)]):
        return Connectivity(None, None, ())
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    vertices: list[tuple[int, tuple[int, ...]]] = []
    for i in range(t.m):
        for v in Subspace.full(t.field, t.state_dims[i]).vectors():
            index[(i, v)] = len(vertices)
            vertices.append((i, v))
    parent = list(range(len(vertices)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    used = set()
    for i in range(t.m):
        nxt = (i + 1) % t.m
        d = t.state_dims[i]
        for e in edges[i].vectors():
            a, b = index[(i, e[:d])], index[(nxt, e[d:])]
            union(a, b)
            used.add(a)
            used.add(b)
    roots = {find(x) for x in used}
    isolated = tuple(
        vertices[x] for x in range(len(vertices)) if x not in used
    )
    return Connectivity(len(roots) <= 1, len(roots), isolated)


def merge_trim_status(t: Trellis) -> tuple[bool, bool]:
    """(nontrimmable, nonmergeable): a trellis is non-trimmable exactly when
    observable and state-trim; nonmergeable is the dual statement."""
    nontrimmable = observable(t) and global_trim_flags(t).state_trim
    td = dualize(t)
    nonmergeable = observable(td) and global_trim_flags(td).state_trim
    return nontrimmable, nonmergeable


# The global yes/no properties of a PropertyReport, in report order.
FLAG_NAMES = (
    "trim",
    "proper",
    "observable",
    "controllable",
    "tpoc",
    "state_trim",
    "branch_trim",
    "reduced",
    "nonmergeable",
    "nontrimmable",
    "connected",
)


@dataclass(frozen=True)
class PropertyReport:
    trim_at: tuple[bool, ...]
    proper_at: tuple[bool, ...]
    state_trim_at: tuple[bool, ...]
    branch_trim_at: tuple[bool, ...]
    trim: bool
    proper: bool
    state_trim: bool
    branch_trim: bool
    observable: bool
    controllable: bool
    connected: bool | None
    nontrimmable: bool
    nonmergeable: bool
    unobservable_state_space: Subspace
    behavior_dim: int
    code_dim: int

    @property
    def tpoc(self) -> bool:
        return self.trim and self.proper and self.observable and self.controllable

    @property
    def reduced(self) -> bool:
        return self.state_trim and self.branch_trim


def property_report(t: Trellis) -> PropertyReport:
    if "property-report" in t._cache:
        return t._cache["property-report"]
    local = [local_flags(t, i) for i in range(t.m)]
    gt = global_trim_flags(t)
    nontrim, nomerge = merge_trim_status(t)
    t._cache["property-report"] = PropertyReport(
        trim_at=tuple(f[0] for f in local),
        proper_at=tuple(f[1] for f in local),
        state_trim_at=gt.state_trim_at,
        branch_trim_at=gt.branch_trim_at,
        trim=all(f[0] for f in local),
        proper=all(f[1] for f in local),
        state_trim=gt.state_trim,
        branch_trim=gt.branch_trim,
        observable=observable(t),
        controllable=controllable(t),
        connected=connected(t).connected,
        nontrimmable=nontrim,
        nonmergeable=nomerge,
        unobservable_state_space=unobservable_state_space(t),
        behavior_dim=behavior(t).dim,
        code_dim=realized_code(t).dim,
    )
    return t._cache["property-report"]


@dataclass(frozen=True)
class ChainReport:
    """Membership in the nested trellis classes for a given t parameter.

    `kv` is None only when the isomorphism test of `is_kv_trellis`'s one
    candidate was undecided; minimality is never decided here.
    """

    tparam: int
    chi: int
    chi_dual: int
    tsb_poc: bool
    ntsb_poc: bool
    irreducible_class: bool
    within_chi_window: bool
    kv: bool | None
    minimal: None = None


def classify_chain(t: Trellis, tparam: int) -> ChainReport:
    from .fragments import t_observability_profile
    from .reduction import is_kv_trellis, span_profile

    code = realized_code(t)
    dual_code = orthogonal(code)
    prof_c = span_profile(code)
    prof_d = span_profile(dual_code)
    if prof_c.chi <= 1 or prof_d.chi <= 1:
        raise ValueError("chain classification needs full support on both sides")
    rep = property_report(t)
    tsb = rep.state_trim and rep.branch_trim and rep.proper and rep.observable and rep.controllable
    ntsb = tsb and rep.nonmergeable
    memory = t_observability_profile(t)
    irr_class = (
        tsb
        and memory.observable[t.m - tparam]
        and memory.controllable[t.m - tparam]
    )
    return ChainReport(
        tparam=tparam,
        chi=prof_c.chi,
        chi_dual=prof_d.chi,
        tsb_poc=tsb,
        ntsb_poc=ntsb,
        irreducible_class=irr_class,
        within_chi_window=min(prof_c.chi, prof_d.chi) > tparam > 1,
        kv=is_kv_trellis(t),
    )
