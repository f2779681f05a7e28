"""Independent brute-force oracles used to pin expected values.

Everything here avoids the library's elimination/kernel/solve routines:
membership and spans are computed by explicit enumeration, behaviors by
walking branches, isomorphism by trying every tuple of invertible state maps.
Kept deliberately dumb.  The one exception is
`kernel_fragment`, the reference for fragment behaviors too large to walk: it
takes `galois.kernel` of the fragment's scattered parity checks, not the
`compose` chains behind `fragments.fragment`.
"""

from __future__ import annotations

from functools import cache
from itertools import product as iter_product

from trellislab.galois import Mat, Subspace, kernel, project
from trellislab.trellis import _scatter_checks


def all_vectors(p: int, n: int):
    return iter_product(range(p), repeat=n)


def span_set(p: int, vectors) -> set[tuple[int, ...]]:
    """All linear combinations of the given vectors, by enumeration."""
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return {()}
    n = len(vectors[0])
    out = set()
    for coeffs in iter_product(range(p), repeat=len(vectors)):
        v = [0] * n
        for c, vec in zip(coeffs, vectors):
            for i in range(n):
                v[i] = (v[i] + c * vec[i]) % p
        out.add(tuple(v))
    return out


def subspace_set(s) -> set[tuple[int, ...]]:
    """Member set of a library Subspace, via combination enumeration only."""
    if s.dim == 0:
        return {tuple([0] * s.ambient_dim)}
    return span_set(s.field.p, s.basis.entries)


def orthogonal_set(p: int, n: int, members: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    out = set()
    for v in all_vectors(p, n):
        if all(sum(a * b for a, b in zip(v, w)) % p == 0 for w in members):
            out.add(v)
    return out


def branch_set(t, i) -> set[tuple[int, ...]]:
    return subspace_set(t.constraints[i])


def enumerate_behavior(t) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All valid trajectories (symbol word, state word) by branch walking."""
    m = t.m
    sdims = t.state_dims
    adims = t.symbol_dims
    branches = [sorted(branch_set(t, i)) for i in range(m)]
    out = set()
    for s0 in all_vectors(t.field.p, sdims[0]):
        partial = [((), s0)]
        for i in range(m):
            nxt = []
            dl = sdims[i]
            da = adims[i]
            for prefix, state in partial:
                for b in branches[i]:
                    if b[:dl] != state:
                        continue
                    sym = b[dl:dl + da]
                    nxt.append((prefix + (sym, state), b[dl + da:]))
            partial = nxt
        for prefix, last in partial:
            if last != s0:
                continue
            syms = []
            states = []
            for k in range(m):
                syms.extend(prefix[2 * k])
                states.extend(prefix[2 * k + 1])
            out.add((tuple(syms), tuple(states)))
    return out


def enumerate_code(t) -> set[tuple[int, ...]]:
    return {a for a, _ in enumerate_behavior(t)}


def enumerate_fragment_paths(t, start: int, length: int):
    """All valid paths over constraints start..start+length-1 (not closed).

    Yields (symbols, states) where states has length+1 blocks
    (s_start .. s_{start+length}).
    """
    m = t.m
    sdims = t.state_dims
    adims = t.symbol_dims
    p = t.field.p
    first = all_vectors(p, sdims[start % m])
    partial = [((), s) for s in first]
    for off in range(length):
        i = (start + off) % m
        dl = sdims[i]
        da = adims[i]
        branches = sorted(branch_set(t, i))
        nxt = []
        for prefix, state in partial:
            for b in branches:
                if b[:dl] != state:
                    continue
                nxt.append((prefix + (b[dl:dl + da], state), b[dl + da:]))
        partial = nxt
    for prefix, last in partial:
        syms = []
        states = []
        for k in range(length):
            syms.extend(prefix[2 * k])
            states.extend(prefix[2 * k + 1])
        states.extend(last)
        yield tuple(syms), tuple(states)


def shortest_span_lengths(codewords: set[tuple[int, ...]], m: int) -> tuple[int | None, ...]:
    """Per start a, the shortest circular interval from a covering the
    support of a codeword nonzero at a (None where no codeword is)."""
    per: list[int | None] = [None] * m
    for w in codewords:
        support = [i for i, x in enumerate(w) if x]
        for a in support:
            r = max((q - a) % m for q in support) + 1
            if per[a] is None or r < per[a]:
                per[a] = r
    return tuple(per)


def min_span_length(p: int, codewords: set[tuple[int, ...]], m: int) -> int:
    """Minimum circular covering-interval length over nonzero codewords."""
    spans = [r for r in shortest_span_lengths(codewords, m) if r is not None]
    if not spans:
        raise ValueError("zero code has no spans")
    return min(spans)


def kernel_fragment(t, iv):
    """The cut-open fragment over the span `iv` as the kernel of its
    constraints' parity checks: (symbol_width, internal, external), the
    internal behavior over (symbols | s_j, interior states, s_k) and the
    external one over (symbols | s_j | s_k)."""
    if iv.m != t.m:
        raise ValueError("span axis length does not match the trellis")
    if iv.length == 0:
        d = t.state_dims[iv.start]
        rows = [[int(c in (k, d + k)) for c in range(2 * d)] for k in range(d)]
        diag = Subspace.span(t.field, 2 * d, rows)
        return 0, diag, diag

    times = iv.times()
    st_off = [sum(t.symbol_dims[i] for i in times)]
    for i in times:
        st_off.append(st_off[-1] + t.state_dims[i])
    n = st_off[-1] + t.state_dims[iv.end]
    rows, sym = [], 0
    for u, i in enumerate(times):
        rows += _scatter_checks(t, i, n, (st_off[u], sym, st_off[u + 1]))
        sym += t.symbol_dims[i]
    internal = kernel(Mat.from_rows(t.field, n, rows))
    keep = [*range(sym + t.state_dims[iv.start]), *range(st_off[-1], n)]  # symbols, s_j, s_k
    external = project(internal, keep)
    return sym, internal, external


def times_matrix(p: int, x, rows) -> tuple[int, ...]:
    """The row vector x times the square matrix with the given rows."""
    return tuple(sum(x[r] * rows[r][c] for r in range(len(rows))) % p for c in range(len(rows)))


@cache
def invertible_matrices(p: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every invertible d x d matrix over GF(p), as row tuples in
    lexicographic order: those M with x M nonzero for every nonzero x."""
    nonzero = [x for x in all_vectors(p, d) if any(x)]
    out = []
    for flat in all_vectors(p, d * d):
        rows = tuple(flat[r * d:(r + 1) * d] for r in range(d))
        if all(any(times_matrix(p, x, rows)) for x in nonzero):
            out.append(rows)
    return out


def isomorphic(a, b) -> bool:
    """Whether some tuple of invertible state maps phi_i takes every branch
    (x, s, y) of a's C_i to a branch (x phi_i, s, y phi_{i+1}) of b's, with
    the branch sets onto each other: every tuple is tried in turn."""
    if a.state_dims != b.state_dims:
        return False
    p, m, sdims, adims = a.field.p, a.m, a.state_dims, a.symbol_dims
    sources = [sorted(branch_set(a, i)) for i in range(m)]
    targets = [branch_set(b, i) for i in range(m)]
    for maps in iter_product(*(invertible_matrices(p, d) for d in sdims)):
        for i in range(m):
            cut = sdims[i] + adims[i]
            image = {
                times_matrix(p, v[:sdims[i]], maps[i]) + v[sdims[i]:cut]
                + times_matrix(p, v[cut:], maps[(i + 1) % m])
                for v in sources[i]
            }
            if image != targets[i]:
                break
        else:
            return True
    return False
