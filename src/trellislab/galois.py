"""Exact linear algebra over prime fields GF(p).

Matrices are small and dense; entries are plain Python ints reduced mod p.
Subspaces are kept in reduced row-echelon form so that two subspaces are
equal exactly when their basis matrices are identical entry-wise.  This
canonical form is what makes every duality statement in the rest of the
library testable by plain equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import Iterable, Iterator, Sequence


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field GF(p), p < 2^31."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= 2**31:  # bounds is_prime's trial division to 46,341 steps
            raise ValueError(f"field modulus too large, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"field modulus must be prime, got {self.p}")


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


@dataclass(frozen=True)
class Mat:
    """A dense matrix over GF(p), row-major, entries reduced mod p."""

    field: FieldSpec
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        p = self.field.p
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for x in row:
                if not 0 <= x < p:
                    raise ValueError(f"entry {x} not reduced mod {p}")

    @classmethod
    def from_rows(cls, field: FieldSpec, cols: int, rows: Iterable[Sequence[int]]) -> "Mat":
        p = field.p
        return cls(field, cols, tuple(tuple(x % p for x in row) for row in rows))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Mat":
        return cls(field, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row_list(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def transpose(self) -> "Mat":
        if not self.entries:
            return Mat(self.field, 0, tuple(() for _ in range(self.cols)))
        return Mat(self.field, self.rows, tuple(zip(*self.entries)))


def _rref_rows(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """In-place Gaussian elimination; returns (nonzero reduced rows, pivot cols)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c] % p
        if lead != 1:
            inv = pow(lead, p - 2, p)
            rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                rr = rows[r]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def rref(m: Mat) -> Mat:
    """Canonical reduced row-echelon form with zero rows removed."""
    reduced, _ = _rref_rows(m.row_list(), m.field.p)
    return Mat(m.field, m.cols, tuple(tuple(r) for r in reduced))


def rank(m: Mat) -> int:
    _, pivots = _rref_rows(m.row_list(), m.field.p)
    return len(pivots)


def _is_canonical(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Whether `rref` returns the rows unchanged: tuples, each with a leading 1
    right of the one above, and zero in the pivot columns of the rows above."""
    last = -1
    for k, row in enumerate(rows):
        c = row.index(1) if isinstance(row, tuple) and 1 in row else -1
        if c <= last or any(row[:c]) or any(above[c] for above in rows[:k]):
            return False
        last = c
    return isinstance(rows, tuple)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of GF(p)^n held as a canonical RREF basis.

    Equality is entry-wise equality of the basis matrices, which by the
    RREF normalization coincides with equality of subspaces.
    """

    field: FieldSpec
    ambient_dim: int
    basis: Mat

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        if not _is_canonical(self.basis.entries):
            raise ValueError("basis is not in canonical reduced form")

    @classmethod
    def span(cls, field: FieldSpec, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        m = Mat.from_rows(field, ambient_dim, vectors)
        return cls(field, ambient_dim, rref(m))

    @classmethod
    def zero(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Mat(field, ambient_dim, ()))

    @classmethod
    def full(cls, field: FieldSpec, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Mat.identity(field, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def pivots(self) -> list[int]:
        piv = []
        for row in self.basis.entries:
            piv.append(next(i for i, x in enumerate(row) if x))
        return piv

    def contains(self, vector: Sequence[int]) -> bool:
        p = self.field.p
        v = [x % p for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        for row, c in zip(self.basis.entries, self.pivots()):
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return not any(v)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.entries)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All p^dim members, in coefficient-lexicographic order."""
        p = self.field.p
        rows = self.basis.entries
        for coeffs in iter_product(range(p), repeat=self.dim):
            v = [0] * self.ambient_dim
            for c, row in zip(coeffs, rows):
                if c:
                    v = [(x + c * y) % p for x, y in zip(v, row)]
            yield tuple(v)

    def sorted_vectors(self) -> list[tuple[int, ...]]:
        return sorted(self.vectors())

    @cached_property
    def memo(self) -> dict:
        """Values derived from this subspace alone, kept with it: a constraint
        shared by successive trellises of a reduction is worked on once."""
        return {}


def kernel(m: Mat) -> Subspace:
    """Right kernel {x : m x^T = 0}, returned as a subspace of row vectors."""
    p = m.field.p
    reduced, pivots = _rref_rows(m.row_list(), p)
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, c in zip(reduced, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return Subspace.span(m.field, n, basis)


def orthogonal(s: Subspace) -> Subspace:
    """Orthogonal complement under the standard inner product."""
    if "orthogonal" not in s.memo:
        s.memo["orthogonal"] = kernel(s.basis)
    return s.memo["orthogonal"]


def lattice(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Sum and intersection of two subspaces of a common ambient space, by
    Zassenhaus's method: in the RREF of the rows (u | u), u in a's basis,
    and (v | 0), v in b's, the left halves of the rows span a + b, and the
    right halves of the rows whose left half vanishes span a ∩ b.  Both are
    read off already canonical."""
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise ValueError("ambient mismatch")
    field, n = a.field, a.ambient_dim
    rows = [row + row for row in a.basis.entries] + [row + (0,) * n for row in b.basis.entries]
    reduced = rref(Mat(field, 2 * n, tuple(rows))).entries
    total = tuple(row[:n] for row in reduced if any(row[:n]))
    inter = tuple(row[n:] for row in reduced if not any(row[:n]))
    return Subspace(field, n, Mat(field, n, total)), Subspace(field, n, Mat(field, n, inter))


def _last_nonzero_rows(s: Subspace) -> dict[int, tuple[int, ...]]:
    """s's basis eliminated once with its columns reversed, keyed by each
    row's last nonzero column c: the row has a 1 at c and a 0 at every
    other key, and every member of s is the combination of these rows with
    its own entries at the keys as coefficients."""
    n = s.ambient_dim
    reduced = rref(Mat(s.field, n, tuple(row[::-1] for row in s.basis.entries)))
    return {n - 1 - row.index(1): row[::-1] for row in reduced.entries}


def complement(s: Subspace) -> Subspace:
    """A deterministic direct complement of s: the unit vectors e_c at every
    column c that ends no member of s.

    It is what extending s's basis by e_0, e_1, ... in order keeps, taking
    each unit vector independent of what has been collected so far: e_c is
    dependent exactly when some member of s has its last nonzero entry at c.
    """
    n, ends = s.ambient_dim, _last_nonzero_rows(s)
    rows = tuple(tuple(int(k == c) for k in range(n)) for c in range(n) if c not in ends)
    return Subspace(s.field, n, Mat(s.field, n, rows))


def quotient_map(s: Subspace) -> Mat:
    """The projection along s onto `complement(s)`, as the matrix q with
    x -> x q in the complement's basis coordinates, so that x minus x q
    (read back as a vector) lies in s.  A free coordinate goes to itself,
    and a column c that ends a member of s goes to minus the free part of
    the eliminated row that ends at c; no inverse is needed."""
    p, ends = s.field.p, _last_nonzero_rows(s)
    free = [c for c in range(s.ambient_dim) if c not in ends]
    rows = tuple(
        tuple((-ends[c][f]) % p for f in free) if c in ends else tuple(int(f == c) for f in free)
        for c in range(s.ambient_dim)
    )
    return Mat(s.field, len(free), rows)


def project(s: Subspace, cols: Sequence[int]) -> Subspace:
    """Projection onto the listed coordinates (in the listed order)."""
    rows = [[row[c] for c in cols] for row in s.basis.entries]
    return Subspace.span(s.field, len(cols), rows)


def cross_section(s: Subspace, cols: Sequence[int]) -> Subspace:
    """Cross-section on the listed coordinates: members vanishing elsewhere,
    restricted to those coordinates (in the listed order): with the other
    coordinates first, the RREF rows that vanish on them are its basis."""
    keep, chosen = list(cols), set(cols)
    other = [c for c in range(s.ambient_dim) if c not in chosen]
    rows = tuple(tuple(row[c] for c in other + keep) for row in s.basis.entries)
    reduced = rref(Mat(s.field, len(other) + len(keep), rows))
    kept = tuple(row[len(other):] for row in reduced.entries if not any(row[: len(other)]))
    return Subspace(s.field, len(keep), Mat(s.field, len(keep), kept))


def negate_columns(s: Subspace, cols: Sequence[int]) -> Subspace:
    """Apply the diagonal sign map flipping the listed coordinates."""
    p = s.field.p
    colset = set(cols)
    rows = [
        [(-x) % p if i in colset else x for i, x in enumerate(row)]
        for row in s.basis.entries
    ]
    return Subspace.span(s.field, s.ambient_dim, rows)


def solve_particular(m: Mat, rhs: Sequence[int]) -> tuple[int, ...] | None:
    """One solution x of m x^T = rhs^T, or None if inconsistent."""
    p = m.field.p
    aug = [list(row) + [rhs[i] % p] for i, row in enumerate(m.entries)]
    reduced, pivots = _rref_rows(aug, p)
    n = m.cols
    x = [0] * n
    for row, c in zip(reduced, pivots):
        if c == n:
            return None
        x[c] = row[n]
    return tuple(x)
