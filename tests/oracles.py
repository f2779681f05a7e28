"""Independent brute-force oracles used to pin expected values.

Everything here avoids the library's elimination/kernel/solve routines:
membership and spans are computed by explicit enumeration, behaviors by
walking branches, isomorphism by trying every tuple of invertible state maps.
Kept deliberately dumb.  Two exceptions use the library's elimination:
`kernel_fragment`, the reference for fragment behaviors too large to walk,
takes `galois.kernel` of the fragment's scattered parity checks, not the
`compose` chains behind `fragments.fragment`; `greedy_complement_columns`
is the rank loop that defines `galois.complement`, not its read-off.  The
KV search reference (`kv_start_sets`, `shortest_span_words`, `kv_verdict`)
is the walk over every start set and the pass over the whole code that
`reduction.is_kv_trellis` replaced; it tests independence with
`galois.rank`, builds its candidates with `trellis.product` and compares
them with `trellis.is_isomorphic`.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product as iter_product

from trellislab.galois import Mat, Subspace, kernel, project, rank
from trellislab.trellis import Generator, Span, _scatter_checks, is_isomorphic, product


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


def shortest_span_words(code) -> list[list[tuple[int, ...]]]:
    """For every start a, in one pass over the enumerated code: the codewords
    nonzero at a whose span from a is the shortest, sorted ([] where no
    codeword is nonzero at a)."""
    m, members = code.ambient_dim, subspace_set(code)
    per = shortest_span_lengths(members, m)
    words: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for w in members:
        support = [q for q, x in enumerate(w) if x]
        for a in support:
            if max((q - a) % m for q in support) + 1 == per[a]:
                words[a].append(w)
    return [sorted(ws) for ws in words]


def kv_start_sets(state_dims, per, k: int) -> list[tuple[int, ...]]:
    """Every k-subset of starts, in lexicographic order, whose shortest spans
    (from a, of length per[a]) have distinct ends and whose interior counts
    equal state_dims: all C(m, k) of them are tried."""
    m = len(state_dims)
    out = []
    for starts in combinations(range(m), k):
        if len({(a + per[a] - 1) % m for a in starts}) != k:
            continue
        counts = [0] * m
        for a in starts:
            for u in range(1, per[a]):
                counts[(a + u) % m] += 1
        if tuple(counts) == tuple(state_dims):
            out.append(starts)
    return out


def kv_verdict(t, code, cap: int) -> bool | None:
    """Whether t, with symbol dims 1, is isomorphic to the product of one
    shortest-span word per start of some `kv_start_sets` set, the words taken
    from `shortest_span_words` and independent; None when no such product
    is, and some start set has more than `cap` tuples of words or some
    isomorphism test is undecided."""
    m, k = code.ambient_dim, code.dim
    words = shortest_span_words(code)
    per = shortest_span_lengths(subspace_set(code), m)
    undecided = False
    for starts in kv_start_sets(t.state_dims, per, k):
        pools = [words[a] for a in starts]
        total = 1
        for pool in pools:
            total *= len(pool)
        if total > cap:
            undecided = True
            continue
        for combo in iter_product(*pools):
            if rank(Mat.from_rows(code.field, m, combo)) != k:
                continue
            gens = [Generator(w, Span(a, per[a], m)) for w, a in zip(combo, starts)]
            iso = is_isomorphic(t, product(code.field, gens, t.symbol_dims)).isomorphic
            if iso is True:
                return True
            undecided |= iso is None
    return None if undecided else False


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


def greedy_complement_columns(s) -> list[int]:
    """The columns c whose unit vectors e_c a greedy pass keeps when it
    extends s's basis by e_0, e_1, ... in order, taking each that raises
    the rank of what it has collected."""
    n = s.ambient_dim
    collected, kept = list(s.basis.entries), []
    for c in range(n):
        unit = tuple(int(k == c) for k in range(n))
        if rank(Mat(s.field, n, tuple(collected + [unit]))) > len(collected):
            collected.append(unit)
            kept.append(c)
    return kept


def is_projection_along(s, free, q) -> bool:
    """Whether the matrix q (rows over GF(p)^n, columns the free columns)
    projects along s onto the unit vectors at the free columns: for every x,
    x minus x q placed back at the free columns is a member of s, and every x
    supported on the free columns is its own image.  Tries every x."""
    p, n = s.field.p, s.ambient_dim
    members = subspace_set(s)
    for x in all_vectors(p, n):
        image = [0] * n
        for col, f in enumerate(free):
            image[f] = sum(x[r] * q.entries[r][col] for r in range(n)) % p
        if tuple((a - b) % p for a, b in zip(x, image)) not in members:
            return False
        if not any(x[c] for c in range(n) if c not in free) and tuple(image) != x:
            return False
    return True


def restricted_block(c, lo: int, hi: int, y) -> set[tuple[int, ...]]:
    """Members of c whose coordinates lo..hi-1 lie in y, that block replaced
    by its coordinates z in y's basis: the z with z Y equal to it, found by
    trying every z."""
    p, rows = c.field.p, y.basis.entries
    coords = {}
    for z in all_vectors(p, y.dim):
        coords[tuple(sum(z[r] * rows[r][k] for r in range(y.dim)) % p for k in range(hi - lo))] = z
    return {v[:lo] + coords[v[lo:hi]] + v[hi:] for v in subspace_set(c) if v[lo:hi] in coords}


def connectivity(t) -> tuple[bool, int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(connected, component count, isolated states) of the trellis diagram,
    by joining the two ends of every enumerated branch; states on no branch
    are listed apart, in time then lexicographic order."""
    p, m, sdims = t.field.p, t.m, t.state_dims
    root = {(i, v): (i, v) for i in range(m) for v in all_vectors(p, sdims[i])}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    used = set()
    for i in range(m):
        for b in branch_set(t, i):
            a, z = (i, b[:sdims[i]]), ((i + 1) % m, b[len(b) - sdims[(i + 1) % m]:])
            root[find(a)] = find(z)
            used |= {a, z}
    components = len({find(x) for x in used})
    return components <= 1, components, tuple(x for x in root if x not in used)
