"""Tail-biting trellis data model: the product constructor, behavior,
duality, isomorphism.

A trellis of length m has symbol spaces A_i, state spaces S_i, and constraint
codes C_i inside S_i x A_i x S_{i+1}, all indexed mod m.  Constraint-code
coordinates are always ordered (state-in | symbol | state-out).  Behavior and
code subspaces use the coordinate order (all symbols a_0..a_{m-1}, then all
states s_0..s_{m-1}).

Trellis values are immutable; the attached cache only memoizes derived
immutable values (behavior, dual, transition relations and fragment external
behaviors), so sharing across threads is safe for readers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import product as iter_product
from operator import mul

from .galois import (
    FieldSpec,
    Mat,
    Subspace,
    kernel,
    negate_columns,
    orthogonal,
    project,
    rank,
    solve_particular,
)


@dataclass(frozen=True)
class Span:
    """A possibly circular interval [start, start+length) on the axis Z_m.

    length m means the whole axis starting at `start`; length 0 is the empty
    interval at `start` (the single cut edge S_start).
    """

    start: int
    length: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("axis length must be positive")
        if not 0 <= self.start < self.m:
            raise ValueError("span start out of range")
        if not 0 <= self.length <= self.m:
            raise ValueError("span length out of range")

    def times(self) -> list[int]:
        """Constraint/symbol indices covered by the interval."""
        return [(self.start + u) % self.m for u in range(self.length)]

    def interior(self) -> list[int]:
        """State indices strictly inside the interval."""
        return [(self.start + u) % self.m for u in range(1, self.length)]

    @property
    def end(self) -> int:
        return (self.start + self.length) % self.m

    def complement(self) -> "Span":
        return Span(self.end, self.m - self.length, self.m)

    def covers(self, index: int) -> bool:
        return (index - self.start) % self.m < self.length


@dataclass(frozen=True)
class Generator:
    """A codeword together with a circular span covering its support."""

    word: tuple[int, ...]
    span: Span


@dataclass(frozen=True)
class Trellis:
    field: FieldSpec
    m: int
    symbol_dims: tuple[int, ...]
    state_dims: tuple[int, ...]
    constraints: tuple[Subspace, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("trellis length must be at least 1")
        if len(self.symbol_dims) != self.m or len(self.state_dims) != self.m:
            raise ValueError("dimension lists must have length m")
        if len(self.constraints) != self.m:
            raise ValueError("need one constraint code per time index")
        problems = validate(self)
        if problems:
            raise ValueError("malformed trellis: " + "; ".join(problems))

    def constraint_ambient(self, i: int) -> int:
        return self.state_dims[i] + self.symbol_dims[i] + self.state_dims[(i + 1) % self.m]

    def symbol_total(self) -> int:
        return sum(self.symbol_dims)

    def state_total(self) -> int:
        return sum(self.state_dims)

    def symbol_offset(self, i: int) -> int:
        return sum(self.symbol_dims[:i])

    def state_offset(self, i: int, states_only: bool = False) -> int:
        """First coordinate of S_i in the behavior (after all symbols), or with
        `states_only` in a state configuration (s_0, ..., s_{m-1})."""
        base = 0 if states_only else self.symbol_total()
        return base + sum(self.state_dims[:i])

    def state_columns(self, i: int, states_only: bool = False) -> list[int]:
        off = self.state_offset(i, states_only)
        return list(range(off, off + self.state_dims[i]))

    def branch_columns(self, i: int) -> list[int]:
        """Behavior coordinates of C_i, in its (state-in | symbol | state-out) order."""
        sym = self.symbol_offset(i)
        return (
            self.state_columns(i)
            + list(range(sym, sym + self.symbol_dims[i]))
            + self.state_columns((i + 1) % self.m)
        )

    def state_out_offset(self, i: int) -> int:
        """First coordinate of the state-out block S_{i+1} inside C_i."""
        return self.state_dims[i] + self.symbol_dims[i]

    def split(self, i: int, row) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """A row of C_i as its (state-in, symbol, state-out) blocks: the one
        place outside this module that knows the constraint-row layout."""
        s, o = self.state_dims[i], self.state_out_offset(i)
        return tuple(row[:s]), tuple(row[s:o]), tuple(row[o:])

    def constraint_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.constraints)


def validate(t: Trellis) -> list[str]:
    """Report-style invariant check; empty list means valid.  Every Trellis
    runs it once, at construction."""
    problems = []
    for i, c in enumerate(t.constraints):
        want = t.constraint_ambient(i)
        if c.ambient_dim != want:
            problems.append(
                f"constraint {i}: ambient dim {c.ambient_dim}, expected {want}"
            )
        if c.field != t.field:
            problems.append(f"constraint {i}: field mismatch")
    for i, d in enumerate(t.state_dims):
        if d < 0:
            problems.append(f"state dim {i} negative")
    for i, d in enumerate(t.symbol_dims):
        if d < 0:
            problems.append(f"symbol dim {i} negative")
    return problems


def product(field: FieldSpec, generators: list[Generator], symbol_dims: tuple[int, ...]) -> Trellis:
    """The product of the elementary trellises of the generators: each
    generator's word is one path that leaves the zero state at its span
    start and returns to it at the span end, through a state coordinate of
    its own at every interior time of the span.  So S_i has one coordinate
    per generator whose span has i in its interior, in generator order, and
    C_i is spanned by the branch (state-in | word block | state-out) of every
    generator whose span covers i.  An elementary trellis is the product of
    one generator."""
    if not generators:
        raise ValueError("product of no generators")
    m = len(symbol_dims)
    offsets = [sum(symbol_dims[:i]) for i in range(m + 1)]
    for g in generators:
        if g.span.m != m:
            raise ValueError("symbol dims must have length m")
        if g.span.length == 0:
            raise ValueError("generator span must be nonempty")
        if len(g.word) != offsets[m]:
            raise ValueError("word length does not match symbol dims")
        if not any(g.word):
            raise ValueError("generator word must be nonzero")
        for i in range(m):
            if any(g.word[offsets[i]:offsets[i + 1]]) and not g.span.covers(i):
                raise ValueError(f"word has support at time {i} outside its span")
    coords: list[dict[int, int]] = [{} for _ in range(m)]
    for n, g in enumerate(generators):
        for i in g.span.interior():
            coords[i][n] = len(coords[i])
    sdims = tuple(len(c) for c in coords)

    def state(i: int, n: int) -> tuple[int, ...]:
        return tuple(int(coords[i].get(n) == c) for c in range(sdims[i]))

    constraints = []
    for i in range(m):
        nxt = (i + 1) % m
        rows = [
            state(i, n) + tuple(g.word[offsets[i]:offsets[i + 1]]) + state(nxt, n)
            for n, g in enumerate(generators)
            if g.span.covers(i)
        ]
        constraints.append(Subspace.span(field, sdims[i] + symbol_dims[i] + sdims[nxt], rows))
    return Trellis(field, m, tuple(symbol_dims), sdims, tuple(constraints))


def _scatter_checks(t: Trellis, i: int, n: int, offsets: tuple[int, int, int]) -> list[list[int]]:
    """C_i's parity checks as rows of length n, with the (state-in, symbol,
    state-out) blocks placed at the given offsets.  Entries are added mod p:
    in the behavior of a length-1 trellis both state blocks share columns."""
    p = t.field.p
    dims = (t.state_dims[i], t.symbol_dims[i], t.state_dims[(i + 1) % t.m])
    cols = [off + k for off, d in zip(offsets, dims) for k in range(d)]
    rows = []
    for h in orthogonal(t.constraints[i]).basis.entries:
        row = [0] * n
        for c, x in zip(cols, h):
            row[c] = (row[c] + x) % p
        rows.append(row)
    return rows


def behavior(t: Trellis) -> Subspace:
    """All valid trajectories, as a subspace of A x S.

    Each constraint code is imposed through its orthogonal complement as a
    block of parity checks on the global configuration vector.
    """
    cached = t._cache.get("behavior")
    if cached is not None:
        return cached
    n = t.symbol_total() + t.state_total()
    rows = []
    for i in range(t.m):
        offsets = (t.state_offset(i), t.symbol_offset(i), t.state_offset((i + 1) % t.m))
        rows += _scatter_checks(t, i, n, offsets)
    result = kernel(Mat.from_rows(t.field, n, rows))
    t._cache["behavior"] = result
    return result


def realized_code(t: Trellis) -> Subspace:
    """Symbol projection of the behavior."""
    cached = t._cache.get("code")
    if cached is not None:
        return cached
    b = behavior(t)
    result = project(b, list(range(t.symbol_total())))
    t._cache["code"] = result
    return result


def _dual_constraint(t: Trellis, i: int) -> Subspace:
    """The normal-realization dual of C_i: its orthogonal complement with the
    sign of each outgoing state coordinate inverted.  An involution, so it
    also recovers C_i from the dual trellis's constraint."""
    c, off = t.constraints[i], t.state_out_offset(i)
    if ("dual-constraint", off) not in c.memo:
        c.memo["dual-constraint", off] = negate_columns(orthogonal(c), range(off, c.ambient_dim))
    return c.memo["dual-constraint", off]


def dualize(t: Trellis) -> Trellis:
    """Dual trellis: every constraint replaced by its dual constraint.  An
    exact involution.  The dual refers back to t only weakly: a trellis and
    its cached dual form no reference cycle, so both are freed, caches and
    all, as soon as t is dropped rather than at the next full collection."""
    cached = t._cache.get("dual")
    if isinstance(cached, weakref.ref):
        cached = cached()
    if cached is not None:
        return cached
    constraints = tuple(_dual_constraint(t, i) for i in range(t.m))
    result = Trellis(t.field, t.m, t.symbol_dims, t.state_dims, constraints)
    result._cache["dual"] = weakref.ref(t)
    t._cache["dual"] = result
    return result


@dataclass(frozen=True)
class IsoResult:
    """Outcome of `is_isomorphic`, None past its cap; True carries the maps x -> x phi_i."""

    isomorphic: bool | None
    witness: tuple[Mat, ...] | None = None
    note: str = ""


ISO_MAX_CANDIDATES = 3**9  # as many as there are 3 x 3 matrices over GF(3)


def is_isomorphic(a: Trellis, b: Trellis) -> IsoResult:
    """Decide linear trellis isomorphism: invertible state maps phi_i with
    (x, s, y) -> (x phi_i, s, y phi_{i+1}) taking each C_i of a onto b's.

    The maps solve one linear system in their entries: each basis row
    (x, s, y) of a's C_i and parity check (h_in, h_a, h_out) of b's give
    h_in.(x phi_i) + h_out.(y phi_{i+1}) = -h_a.s.  A particular solution
    plus each kernel vector in turn is tried until all blocks are invertible.
    This is exact: invertible blocks map a's C_i into b's injectively, and
    equal constraint dims make the image all of it.  If a is state-trim and
    b observable (say both observable and state-trim), the kernel is zero: a
    kernel element maps each trajectory of a to a zero-symbol trajectory of
    b, which is zero, and a's trajectory states span every S_i.  Past
    ISO_MAX_CANDIDATES solutions it is undecided."""
    if a.m != b.m or a.field != b.field or a.symbol_dims != b.symbol_dims:
        raise ValueError("isomorphism requires equal length, field, and symbol dims")
    if a.state_dims != b.state_dims:
        return IsoResult(False, note="state dimension profiles differ")
    if a.constraint_dims() != b.constraint_dims():
        return IsoResult(False, note="constraint dimension profiles differ")
    p, dims = a.field.p, a.state_dims
    offsets = [sum(d * d for d in dims[:i]) for i in range(a.m + 1)]
    rows, rhs = [], []
    for i in range(a.m):
        checks = [b.split(i, h) for h in orthogonal(b.constraints[i]).basis.entries]
        for row, (h_in, h_a, h_out) in iter_product(a.constraints[i].basis.entries, checks):
            (x, s, y), eq = a.split(i, row), [0] * offsets[-1]
            for j, v, h in ((i, x, h_in), ((i + 1) % a.m, y, h_out)):
                for r, c in iter_product(range(dims[j]), repeat=2):
                    eq[offsets[j] + r * dims[j] + c] += v[r] * h[c]
            rows.append(eq)
            rhs.append(-sum(map(mul, h_a, s)))
    system = Mat.from_rows(a.field, offsets[-1], rows)
    base = solve_particular(system, rhs)
    if base is None:
        return IsoResult(False)
    free = kernel(system)
    if p ** free.dim > ISO_MAX_CANDIDATES:
        return IsoResult(None, note=f"{p}^{free.dim} candidate maps exceed the cap")
    for v in free.vectors():
        flat = iter([(x + y) % p for x, y in zip(base, v)])
        witness = tuple(Mat(a.field, d, tuple(tuple(next(flat) for _ in range(d)) for _ in range(d))) for d in dims)
        if all(rank(w) == w.cols for w in witness):
            return IsoResult(True, witness=witness)
    return IsoResult(False)


def time_reversed(t: Trellis) -> Trellis:
    """Reverse the time axis: state spaces re-indexed i -> m-i, constraints
    re-indexed and their state blocks swapped.  An exact involution."""
    m = t.m
    sdims = tuple(t.state_dims[(m - i) % m] for i in range(m))
    adims = tuple(t.symbol_dims[m - 1 - i] for i in range(m))
    constraints = []
    for i in range(m):
        src = m - 1 - i
        rows = []
        for b in t.constraints[src].basis.entries:
            s_in, a, s_out = t.split(src, b)
            rows.append(s_out + a + s_in)
        constraints.append(Subspace.span(t.field, t.constraint_ambient(src), rows))
    return Trellis(t.field, m, adims, sdims, tuple(constraints))
