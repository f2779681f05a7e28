"""Constructive trellis transformations and reduction procedures.

Primitive surgery (trim_to / merge_to / branch_trim / branch_expand) returns
plain trellises and may change the realized code; everything wrapped in a
ReductionStep is checked to preserve the code exactly and carries enough
parameters to be replayed deterministically from a serialized record.  The
one check, `_same_code`, compares the external behavior of the interval the
step rewrote, and the realized codes only when that does not decide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .galois import (
    Mat,
    Subspace,
    complement,
    cross_section,
    kernel,
    lattice,
    orthogonal,
    project,
    quotient_map,
    rref,
    solve_particular,
)
from .trellis import (
    Generator,
    Span,
    Trellis,
    _dual_constraint,
    behavior,
    dualize,
    is_isomorphic,
    product,
    realized_code,
    time_reversed,
)
from .analysis import (
    _adjacent_onto_state,
    controllable,
    global_trim_flags,
    is_tpoc,
    local_flags,
    observable,
)
from .fragments import (
    _unobservable_reach,
    fragment,
    t_observability_profile,
    transition_relation,
    unobservable_state_space,
)


# ---------------------------------------------------------------------------
# primitive surgery


def _rewrite_state(t: Trellis, i: int, y: Subspace, kind: str, new_dim: int, block) -> Trellis:
    """Replace S_i by a new_dim-dimensional space, rewriting its block in
    C_{i-1} and in C_i with `block(code, lo, hi)`.  The state-out block is
    rewritten first, so for m = 1, where both blocks lie in C_0, the state-in
    block has not moved."""
    i %= t.m
    if y.ambient_dim != t.state_dims[i] or y.field != t.field:
        raise ValueError(f"{kind} subspace does not live in S_i")
    prev = (i - 1) % t.m
    n = t.state_dims[i]
    lo = t.state_out_offset(prev)
    constraints = list(t.constraints)
    constraints[prev] = block(constraints[prev], lo, lo + n)
    constraints[i] = block(constraints[i], 0, n)
    sdims = list(t.state_dims)
    sdims[i] = new_dim
    return Trellis(t.field, t.m, t.symbol_dims, tuple(sdims), tuple(constraints))


def _map_block(s: Subspace, lo: int, hi: int, m: Mat) -> Mat:
    """s's basis rows with their coordinates lo..hi-1 mapped x -> x m."""
    p = s.field.p
    rows = []
    for row in s.basis.entries:
        block = row[lo:hi]
        image = tuple(sum(block[k] * m.entries[k][j] for k in range(hi - lo)) % p for j in range(m.cols))
        rows.append(row[:lo] + image + row[hi:])
    return Mat(s.field, s.ambient_dim - (hi - lo) + m.cols, tuple(rows))


def _restrict_block(c: Subspace, lo: int, hi: int, y: Subspace) -> Subspace:
    """Members of c whose coordinates lo..hi-1 lie in y, with that block
    re-expressed in y's basis coordinates: the kernel of c's parity checks
    with their block pulled back through y's basis Y, h -> h Y^T."""
    return kernel(_map_block(orthogonal(c), lo, hi, y.basis.transpose()))


def trim_to(t: Trellis, i: int, y: Subspace) -> Trellis:
    """Restrict the state space S_i to y: both adjacent constraint codes pull
    their parity checks back through y's basis (`_restrict_block`), so the
    new state space uses y's canonical basis coordinates.  The realized code
    is not necessarily preserved."""
    return _rewrite_state(
        t, i, y, "trim", y.dim, lambda c, lo, hi: _restrict_block(c, lo, hi, y)
    )


def merge_to(t: Trellis, i: int, y: Subspace) -> Trellis:
    """Replace S_i by the quotient modulo y: both adjacent constraint codes
    push their basis rows forward through `galois.quotient_map(y)`, the
    projection along y onto its deterministic complement.  The realized code
    is not necessarily preserved."""
    q = quotient_map(y)

    def push_forward(c: Subspace, lo: int, hi: int) -> Subspace:
        image = rref(_map_block(c, lo, hi, q))
        return Subspace(c.field, image.cols, image)

    return _rewrite_state(t, i, y, "merge", q.cols, push_forward)


def _same_code(before: Trellis, after: Trellis, interval: Span) -> bool:
    """Whether `after`, which rewrote `before` over `interval` [j, j+L),
    realizes the same code: decided by the fragment when the rewrite stayed
    inside the interval, else by comparing the realized codes.

    Every trajectory cuts at S_j and S_{j+L} into a path across the interval
    and a path across the rest (the cut-set argument of Forney, "Codes on
    graphs: normal realizations", IEEE Trans. IT 2001).  If the two trellises
    have equal constraints outside the interval and equal state spaces off
    its interior, the outside paths are the same, and the inside paths enter
    the code only through the fragment's external behavior (s_j | a | s_{j+L}).
    So equal fragments give equal codes, also for L = m, where the code is
    read off the fragment by setting s_{j+m} = s_j.  The converse fails: a
    step may change the fragment and keep the code."""
    times, inner = set(interval.times()), set(interval.interior())
    local = (
        all(a == b for i, (a, b) in enumerate(zip(before.constraints, after.constraints)) if i not in times)
        and all(a == b for i, (a, b) in enumerate(zip(before.state_dims, after.state_dims)) if i not in inner)
        and fragment(before, interval) == fragment(after, interval)
    )
    return local or realized_code(after) == realized_code(before)


def branch_trim(t: Trellis, i: int) -> Trellis:
    """Replace C_i by the branches that occur on valid trajectories."""
    i %= t.m
    used = project(behavior(t), t.branch_columns(i))
    if used == t.constraints[i]:
        raise ValueError(f"constraint {i} is already branch-trim")
    constraints = list(t.constraints)
    constraints[i] = used
    return Trellis(t.field, t.m, t.symbol_dims, t.state_dims, tuple(constraints))


def branch_expand(t: Trellis, i: int, new_branches: Subspace) -> Trellis:
    """Replace C_i by C_i + new_branches; raises if the realized code changes."""
    i %= t.m
    if new_branches.ambient_dim != t.constraints[i].ambient_dim:
        raise ValueError("new branches have the wrong ambient dimension")
    total, _ = lattice(t.constraints[i], new_branches)
    constraints = list(t.constraints)
    constraints[i] = total
    out = Trellis(t.field, t.m, t.symbol_dims, t.state_dims, tuple(constraints))
    if not _same_code(t, out, Span(i, 1, t.m)):
        raise ValueError("branch expansion changes the realized code")
    return out


# ---------------------------------------------------------------------------
# reduction steps


@dataclass(frozen=True)
class ReductionStep:
    """One applied, code-preserving transformation with replay parameters;
    its dimension profiles and flags are read off its input and result."""

    kind: str
    params: dict
    interval: tuple[int, int]
    witness: dict | None
    input: Trellis = field(repr=False)
    result: Trellis = field(repr=False)
    details: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def before_state_dims(self) -> tuple[int, ...]:
        return self.input.state_dims

    @property
    def after_state_dims(self) -> tuple[int, ...]:
        return self.result.state_dims

    @property
    def before_constraint_dims(self) -> tuple[int, ...]:
        return self.input.constraint_dims()

    @property
    def after_constraint_dims(self) -> tuple[int, ...]:
        return self.result.constraint_dims()

    @property
    def strict(self) -> bool:
        """No state space grew and one shrank."""
        pairs = list(zip(self.after_state_dims, self.before_state_dims))
        return all(a <= b for a, b in pairs) and any(a < b for a, b in pairs)

    @property
    def conservative(self) -> bool:
        """No constraint code grew."""
        return all(a <= b for a, b in zip(self.after_constraint_dims, self.before_constraint_dims))

    def record(self) -> dict:
        rec = {
            "kind": self.kind,
            "params": self.params,
            "interval": list(self.interval),
            "strict": self.strict,
            "conservative": self.conservative,
            "before_state_dims": list(self.before_state_dims),
            "after_state_dims": list(self.after_state_dims),
            "before_constraint_dims": list(self.before_constraint_dims),
            "after_constraint_dims": list(self.after_constraint_dims),
        }
        if self.witness is not None:
            rec["witness"] = self.witness
        return rec


def _make_step(
    kind: str,
    params: dict,
    interval: Span,
    witness: dict | None,
    before: Trellis,
    after: Trellis,
    details: dict | None = None,
) -> ReductionStep:
    if not _same_code(before, after, interval):
        raise RuntimeError(f"{kind} step failed to preserve the realized code")
    return ReductionStep(
        kind=kind,
        params=params,
        interval=(interval.start, interval.length),
        witness=witness,
        input=before,
        result=after,
        details=details or {},
    )


def _restated(
    step: ReductionStep, t: Trellis, after: Trellis, interval: Span, **params
) -> ReductionStep:
    """A step computed on a mirror image of t (its dual or time reversal),
    restated as a step of t: `after` is its result mapped back to t, and
    `interval` and `params` are in t's terms."""
    return _make_step(
        step.kind, dict(step.params, **params), interval, step.witness, t, after, step.details
    )


def _basis_rows(s: Subspace) -> list[list[int]]:
    return [list(r) for r in s.basis.entries]


def _state_step(kind: str, t: Trellis, i: int, y: Subspace, note: str = "") -> ReductionStep:
    """A trim or merge of S_i by y as a checked step."""
    params = {"time": i % t.m, "basis": _basis_rows(y)}
    if note:
        params["note"] = note
    after = (trim_to if kind == "trim" else merge_to)(t, i, y)
    return _make_step(kind, params, Span((i - 1) % t.m, min(2, t.m), t.m), None, t, after)


def trim_step(t: Trellis, i: int, y: Subspace, note: str = "") -> ReductionStep:
    return _state_step("trim", t, i, y, note)


def merge_step(t: Trellis, i: int, y: Subspace, note: str = "") -> ReductionStep:
    return _state_step("merge", t, i, y, note)


def branch_trim_step(t: Trellis, i: int) -> ReductionStep:
    after = branch_trim(t, i)
    return _make_step("branch-trim", {"time": i % t.m}, Span(i % t.m, 1, t.m), None, t, after)


def branch_expand_step(t: Trellis, i: int, new_branches: Subspace) -> ReductionStep:
    after = branch_expand(t, i, new_branches)
    return _make_step(
        "branch-expand",
        {"time": i % t.m, "basis": _basis_rows(new_branches)},
        Span(i % t.m, 1, t.m),
        None,
        t,
        after,
    )


# ---------------------------------------------------------------------------
# unobservable trimming


def _unobservable_line(t: Trellis, choose_index: int | None = None):
    """(idx, witness, sigma, rest): an unobservable state configuration, a time
    idx where its state sigma is nonzero, and the complement in S_idx of the
    line through sigma.  The witness is the first canonical basis vector and
    idx its first nonzero time, unless idx is chosen; then the witness is the
    first vector in sorted order that is nonzero there."""
    su = unobservable_state_space(t)
    if su.is_zero():
        raise ValueError("trellis is observable; nothing to trim")
    cols = [t.state_columns(i, states_only=True) for i in range(t.m)]
    if choose_index is None:
        witness = su.basis.entries[0]
        idx = next(i for i in range(t.m) if any(witness[c] for c in cols[i]))
    else:
        idx = choose_index % t.m
        witness = next((v for v in su.sorted_vectors() if any(v[c] for c in cols[idx])), None)
        if witness is None:
            raise ValueError(f"no unobservable trajectory is nonzero at time {idx}")
    sigma = [witness[c] for c in cols[idx]]
    line = Subspace.span(t.field, t.state_dims[idx], [sigma])
    return idx, witness, sigma, complement(line)


def unobs_trim(t: Trellis, choose_index: int | None = None) -> ReductionStep:
    """Trim away one dimension of unobservable state, preserving the code.

    The witness is the canonical-basis unobservable trajectory with the
    earliest nonzero state position unless an index is requested explicitly.
    """
    idx, witness, sigma, rest = _unobservable_line(t, choose_index)
    after = trim_to(t, idx, rest)
    step = _make_step(
        "unobs-trim",
        {"time": idx} if choose_index is None else {"time": idx, "chosen": True},
        Span((idx - 1) % t.m, min(2, t.m), t.m),
        {"state": list(sigma), "trajectory": list(witness)},
        t,
        after,
        details={"trim_basis": rest},
    )
    if not step.strict or not step.conservative:
        raise RuntimeError("unobservable trim must be strict and conservative")
    prev = (idx - 1) % t.m
    if local_flags(t, idx)[0] and t.m > 1:
        drop_in = t.constraints[prev].dim - after.constraints[prev].dim
        drop_out = t.constraints[idx].dim - after.constraints[idx].dim
        if (drop_in, drop_out) != (1, 1):
            raise RuntimeError("adjacent constraint dimensions must drop by one")
    return step


@dataclass(frozen=True)
class TwoReduction:
    """Mutually dual strict and conservative 2-reductions built from a
    branch-trim on the dual and its mirror expansion on the primal."""

    primal_steps: tuple[ReductionStep, ...]
    dual_steps: tuple[ReductionStep, ...]

    @property
    def primal_result(self) -> Trellis:
        return self.primal_steps[-1].result

    @property
    def dual_result(self) -> Trellis:
        return self.dual_steps[-1].result


def two_reduction_m1(t: Trellis) -> TwoReduction:
    """For an observable but not (m-1)-observable trellis: branch-trim the
    dual at its first non-branch-trim index, expand the mirror constraint on
    the primal, then trim the resulting unobservable state."""
    if not observable(t):
        raise ValueError("input must be observable")
    td = dualize(t)
    flags = global_trim_flags(td).branch_trim_at
    bad = [i for i, ok in enumerate(flags) if not ok]
    if not bad:
        raise ValueError("trellis is (m-1)-observable; no reduction here")
    i = bad[0]
    dual_bt = branch_trim_step(td, i)
    expanded = _dual_constraint(dual_bt.result, i)
    primal_exp = branch_expand_step(t, i, expanded)
    primal_trim = unobs_trim(primal_exp.result, choose_index=i)
    y = orthogonal(primal_trim.details["trim_basis"])
    dual_merge = merge_step(dual_bt.result, i, y, note="mirror of the primal trim")
    iso = is_isomorphic(dualize(primal_trim.result), dual_merge.result)
    if iso.isomorphic is not True:
        raise RuntimeError("dual pair of 2-reductions failed to mirror")
    composite_strict = any(
        a < b for a, b in zip(primal_trim.result.state_dims, t.state_dims)
    )
    composite_conservative = all(
        a <= b
        for a, b in zip(primal_trim.result.constraint_dims(), t.constraint_dims())
    )
    if not (composite_strict and composite_conservative):
        gt = global_trim_flags(t)
        if not (gt.state_trim and gt.branch_trim):
            raise ValueError("composite 2-reduction not strict and conservative on a non-trim input")
        raise RuntimeError("composite 2-reduction must be strict and conservative")
    return TwoReduction((primal_exp, primal_trim), (dual_bt, dual_merge))


# ---------------------------------------------------------------------------
# zero-run reductions


def _zero_run_site(t: Trellis, j: int, tlen: int) -> tuple[int, int]:
    """(j mod m, k = j - tlen mod m) of a zero-run site; the one range check
    of the zero-run arguments."""
    if not 2 <= tlen <= t.m - 1:
        raise ValueError("reduction length must be between 2 and m-1")
    return j % t.m, (j - tlen) % t.m


def _joins_zero(t: Trellis, start: int, tlen: int, v, at_end: bool) -> bool:
    """Whether (v, 0), or (0, v) `at_end`, is in T of [start, start+tlen-1).
    T with its end block negated is U^perp of that interval on the dual, and
    the sign drops out beside a zero block, so this holds iff v is orthogonal
    to that block of every basis row of the dual's U."""
    u = transition_relation(dualize(t), Span(start, tlen - 1, t.m), "unobservable")
    d = t.state_dims[start]
    lo, hi = (d, u.ambient_dim) if at_end else (0, d)
    if len(v) != hi - lo:
        raise ValueError("vector has wrong length")
    p = t.field.p
    return not any(sum(x * y for x, y in zip(v, row[lo:hi])) % p for row in u.basis.entries)


def condition_A(t: Trellis, j: int, tlen: int, witness_pair) -> bool:
    """No valid path from the witness end state to the zero state one step
    before the witness start."""
    _, k = _zero_run_site(t, j, tlen)
    return not _joins_zero(t, k, tlen, witness_pair[1], at_end=False)


def condition_A_prime(t: Trellis, j: int, tlen: int, witness_pair) -> bool:
    """No valid path from the zero state one step after the witness end to
    the witness start state."""
    _, k = _zero_run_site(t, j, tlen)
    return not _joins_zero(t, (k + 1) % t.m, tlen, witness_pair[0], at_end=True)


def find_zero_run_witness(t: Trellis, j: int, tlen: int):
    """Deterministic witness choice: the first unobservable boundary pair (in
    sorted vector order) satisfying Condition A, else the first satisfying
    Condition A'; None if the fragment is observable or no condition holds."""
    j, _ = _zero_run_site(t, j, tlen)
    u = transition_relation(t, Span(j, t.m - tlen, t.m), "unobservable")
    if u.is_zero():
        return None
    dj = t.state_dims[j]
    pairs = [
        (tuple(v[:dj]), tuple(v[dj:]))
        for v in u.sorted_vectors()
        if any(v[:dj]) and any(v[dj:])
    ]
    for cond, name in ((condition_A, "A"), (condition_A_prime, "A-prime")):
        for pair in pairs:
            if cond(t, j, tlen, pair):
                return pair, name
    return None


def _zero_run_sites(t: Trellis):
    """(side, j, tlen) for every zero-run witness of t or of its dual, by
    increasing tlen, then start j, the primal side before the dual.  A site is
    skipped where the reach shows its U zero, or the other side's U zero over
    both intervals `_joins_zero` reads: there A and A' fail for every pair."""
    sides = t, dualize(t)
    m, reach = t.m, [_unobservable_reach(side) for side in sides]
    for tlen in range(2, m):
        for j in range(m):
            for side, own, other in zip(sides, reach, reach[::-1]):
                if m - tlen >= own[j] or tlen - 1 >= max(other[(j - tlen) % m], other[(j - tlen + 1) % m]):
                    continue
                if find_zero_run_witness(side, j, tlen) is not None:
                    yield side, j, tlen


def zero_run_expand(t: Trellis, j: int, tlen: int, witness_pair) -> Trellis:
    """Adjoin an all-zero-symbol path from the witness end state back to the
    witness start state through fresh one-dimensional state extensions.

    The new coordinate is prepended in every expanded state space."""
    m = t.m
    j, k = _zero_run_site(t, j, tlen)
    s_j, s_k = witness_pair
    inner = {(k + u) % m for u in range(1, tlen)}
    sdims = list(t.state_dims)
    for i in inner:
        sdims[i] += 1
    constraints = []
    for i in range(m):
        nxt = (i + 1) % m
        c = t.constraints[i]
        lshift = (0,) if i in inner else ()
        rshift = (0,) if nxt in inner else ()
        if not lshift and not rshift:
            constraints.append(c)
            continue
        rows = []
        for b in c.basis.entries:
            s_in, a, s_out = t.split(i, b)
            rows.append(lshift + s_in + a + rshift + s_out)
        if (i - k) % m < tlen:
            arc_in = tuple(s_k) if i == k else (1,) + (0,) * t.state_dims[i]
            arc_out = tuple(s_j) if nxt == j else (1,) + (0,) * t.state_dims[nxt]
            rows.append(arc_in + (0,) * t.symbol_dims[i] + arc_out)
        amb = sdims[i] + t.symbol_dims[i] + sdims[nxt]
        constraints.append(Subspace.span(t.field, amb, rows))
    out = Trellis(t.field, m, t.symbol_dims, tuple(sdims), tuple(constraints))
    if not _same_code(t, out, Span(k, tlen, m)):
        raise RuntimeError("expansion changed the realized code")
    if behavior(out).dim != behavior(t).dim + 1:
        raise RuntimeError("expansion must add exactly one unobservable trajectory")
    diag = Subspace.span(t.field, 2, [[1, 1]])
    for i in inner:
        if (i + 1) % m not in inner:
            continue
        mixed = project(out.constraints[i], [0, out.state_out_offset(i)])
        if not diag.contains_space(mixed):
            raise RuntimeError("adjoined coordinates leak into old branches")
    return out


def expand_step(t: Trellis, j: int, tlen: int, witness_pair) -> ReductionStep:
    after = zero_run_expand(t, j, tlen, witness_pair)
    j, k = _zero_run_site(t, j, tlen)
    s_j, s_k = (list(s) for s in witness_pair)
    params = {"start": j, "tlen": tlen, "witness_start": s_j, "witness_end": s_k}
    witness = {"start_state": s_j, "end_state": s_k}
    return _make_step("expand", params, Span(k, tlen, t.m), witness, t, after)


def zero_run_reduce(
    t: Trellis, j: int, tlen: int
) -> tuple[ReductionStep, ReductionStep]:
    """The zero-run reduction: expand along an unobservable fragment witness,
    then cascade state trims.  Returns the conservative tlen-reduction and
    the strict conservative (tlen+1)-reduction, both from the given trellis.
    """
    m = t.m
    j, k = _zero_run_site(t, j, tlen)
    if not is_tpoc(t):
        raise ValueError("zero-run reduction requires a TPOC trellis")
    found = find_zero_run_witness(t, j, tlen)
    if found is None:
        raise ValueError(f"fragment [{j},{k}) is observable or lacks a usable witness")
    witness_pair, cond = found
    if cond == "A":
        return _zero_run_a(t, j, tlen, witness_pair, cond_label="A")
    # A' is Condition A on the time reversal, where the fragment [j, j-tlen)
    # starts at tlen-j and an interval [s, s+L) is [-s-L, -s) of t.
    rev_pair = (witness_pair[1], witness_pair[0])
    steps = _zero_run_a(time_reversed(t), (tlen - j) % m, tlen, rev_pair, cond_label="A-prime")
    return tuple(
        _restated(
            s, t, time_reversed(s.result), Span(-sum(s.interval) % m, s.interval[1], m), start=j
        )
        for s in steps
    )


def _zero_run_a(
    t: Trellis, j: int, tlen: int, witness_pair, cond_label: str
) -> tuple[ReductionStep, ReductionStep]:
    m = t.m
    k = (j + m - tlen) % m
    s_j, s_k = witness_pair
    expanded = zero_run_expand(t, j, tlen, witness_pair)
    last = (j - 1) % m

    trans = transition_relation(expanded, Span(k, tlen - 1, m), "full")
    dk = expanded.state_dims[k]
    dlast = expanded.state_dims[last]
    reach_zero = cross_section(trans, list(range(dk, dk + dlast)))
    tilde = [1] + [0] * (dlast - 1)
    if reach_zero.contains(tilde):
        raise RuntimeError("adjoined state is reachable from zero; witness unusable")
    line = Subspace.span(t.field, dlast, [tilde])
    span_sum, _ = lattice(reach_zero, line)
    z = complement(span_sum)
    x, _ = lattice(reach_zero, z)
    coeffs = solve_particular(
        Mat.from_rows(t.field, dk, [row[:dk] for row in trans.basis.entries]).transpose(),
        list(s_k),
    )
    if coeffs is not None:
        p = t.field.p
        v0 = [0] * dlast
        for c, row in zip(coeffs, trans.basis.entries):
            for q in range(dlast):
                v0[q] = (v0[q] + c * row[dk + q]) % p
        if x.contains(v0):
            raise RuntimeError("condition failed: witness end state reaches the kept states")

    current = trim_to(expanded, last, x)
    idx = (j - 2) % m
    while idx != k:
        left_proj = project(current.constraints[idx], list(range(current.state_dims[idx])))
        current = trim_to(current, idx, left_proj)
        idx = (idx - 1) % m

    def step(phase: str, interval: Span, after: Trellis) -> ReductionStep:
        params = {"start": j, "tlen": tlen, "phase": phase, "condition": cond_label}
        witness = {"start_state": list(s_j), "end_state": list(s_k)}
        details = {"x_basis": x, "reachable_from_zero": reach_zero}
        return _make_step("zero-run", params, interval, witness, t, after, details)

    conservative = step("conservative", Span(k, tlen, m), current)
    if any(a > b for a, b in zip(current.state_dims, t.state_dims)):
        raise RuntimeError("conservative phase must not grow any state space")

    dkk = current.state_dims[k]
    keep = project(current.constraints[k], list(range(dkk)))
    if keep.contains(list(s_k)):
        raise RuntimeError("witness end state still has outgoing branches")
    final = trim_to(current, k, keep)
    strict = step("strict", Span((k - 1) % m, tlen + 1, m), final)
    if not strict.strict or not strict.conservative:
        raise RuntimeError("zero-run must end strict and conservative")
    return conservative, strict


# ---------------------------------------------------------------------------
# span profiles and product generators


@dataclass(frozen=True)
class SpanProfile:
    """Minimum span length of a code and the per-start shortest span lengths
    (None at positions where no codeword is nonzero)."""

    chi: int
    per_position: tuple[int | None, ...]


def _from_start(code: Subspace, a: int) -> Mat:
    """code's basis in RREF with the columns ordered a-1, a-2, ..., a.  The
    rows pivoting at column m-r or later vanish on a-1, ..., a+r, so they
    span D(a, r), the subcode supported in [a, a+r)."""
    m = code.ambient_dim
    order = [(a - 1 - q) % m for q in range(m)]
    return rref(Mat(code.field, m, tuple(tuple(row[c] for c in order) for row in code.basis.entries)))


def span_profile(code: Subspace) -> SpanProfile:
    """The span profile by one elimination per start a (`_from_start`), kept
    in code.memo: among the rows nonzero at a, the last column, the rightmost
    pivot P gives the shortest span r = m - P from a."""
    m = code.ambient_dim
    if code.dim == 0:
        raise ValueError("the zero code has no spans")
    if "span-profile" not in code.memo:
        per: list[int | None] = []
        for a in range(m):
            pivots = [row.index(1) for row in _from_start(code, a).entries if row[-1]]
            per.append(m - max(pivots) if pivots else None)
        code.memo["span-profile"] = SpanProfile(min(r for r in per if r is not None), tuple(per))
    return code.memo["span-profile"]


MAX_DRIVER_ROUNDS = 200


def _shortest_span_subcode(code: Subspace, a: int) -> Subspace:
    """D(a, r) for the shortest span r from a, kept in code.memo: the rows of
    start a's elimination that pivot at m-r or later, with their columns put
    back in order.  Every member nonzero at a spans at least r from a, so
    exactly r: these are the codewords of shortest span from a, and the
    lexicographically first of them, `kv_trellis`'s word at a, is the last
    canonical basis row of D(a, r) that is nonzero at a."""
    key = ("shortest-span-subcode", a)
    if key not in code.memo:
        m, r = code.ambient_dim, span_profile(code).per_position[a]
        rows = [row for row in _from_start(code, a).entries if row.index(1) >= m - r]
        code.memo[key] = Subspace.span(code.field, m, [[row[(a - 1 - c) % m] for c in range(m)] for row in rows])
    return code.memo[key]


def kv_trellis(code: Subspace, start_assignment) -> Trellis:
    """Product trellis from shortest-span generators at the assigned start
    positions, each the lexicographically first member of its start's
    `_shortest_span_subcode` that is nonzero at the start, read off that
    subcode's basis; requires pairwise distinct starts and ends and linear
    independence."""
    m = code.ambient_dim
    starts = list(start_assignment)
    if code.dim == 0:
        raise ValueError("the zero code has no generators")
    if len(starts) != code.dim or len(set(starts)) != len(starts):
        raise ValueError("need dim-many distinct start positions")
    prof = span_profile(code)
    dual_prof = span_profile(orthogonal(code))
    if prof.chi <= 1 or dual_prof.chi <= 1:
        raise ValueError("code and dual must both have full support")
    gens, ends = [], []
    for a in starts:
        w = next(row for row in reversed(_shortest_span_subcode(code, a).basis.entries) if row[a])
        r = prof.per_position[a]
        gens.append(Generator(w, Span(a, r, m)))
        ends.append((a + r - 1) % m)
    if len(set(ends)) != len(ends):
        raise ValueError("shortest spans do not end at distinct positions")
    mat = Mat.from_rows(code.field, m, [g.word for g in gens])
    if rref(mat).rows != code.dim:
        raise ValueError("greedy shortest-span generators are dependent")
    return product(code.field, gens, tuple([1] * m))


def is_kv_trellis(t: Trellis) -> bool | None:
    """Whether t is isomorphic to a product of shortest-span generators with
    distinct starts and ends.  One candidate is read off t and compared by
    one `is_isomorphic` call, so the verdict is None only when that test is
    undecided.

    A product P of independent words is observable, so t must be.  Call a
    trajectory supported on Span(a, r(a)) when its symbols vanish off the
    span and its states off the span's interior.  The starts are the a at
    which such a trajectory is nonzero, and a's word is the first canonical
    row of that cross-section of the behavior, with symbol a listed first.

    Suppose t is isomorphic to P, the product of shortest-span generators
    g_b.  The state maps keep which states are zero, and t is observable,
    so t and P have the same words supported on each span.  The states of
    P's trajectories are sums of unit vectors, one per generator, so a
    trajectory supported on Span(a, r(a)) uses only the g_b nested in that
    span, and it is nonzero at a exactly when g_a occurs in it.  So the
    starts found are P's starts, and each word found is c g_a plus nested
    g_b, with c != 0.  A nested span is strictly shorter, so at every time
    these words are triangular in the g_b with the c on the diagonal, and
    their product is isomorphic to P.  Conversely, each word found is a
    shortest-span word at its start, so a search over every start set and
    every tuple of such words would try the product found whenever it is
    isomorphic to t: both give the same True and False verdicts."""
    if any(d != 1 for d in t.symbol_dims):
        return False
    code = realized_code(t)
    dual_code = orthogonal(code)
    if code.dim == 0 or dual_code.dim == 0:
        return False
    prof = span_profile(code)
    if any(r is None for r in prof.per_position):
        return False
    if span_profile(dual_code).chi <= 1 or prof.chi <= 1:
        return False
    b = behavior(t)
    if b.dim != code.dim:
        return False
    gens = []
    for a, r in enumerate(prof.per_position):
        span = Span(a, r, t.m)
        cols = span.times() + [c for q in span.interior() for c in t.state_columns(q)]
        rows = cross_section(b, cols).basis.entries
        if rows and rows[0][0]:
            word = [0] * t.m
            for q, x in zip(span.times(), rows[0]):
                word[q] = x
            gens.append(Generator(tuple(word), span))
    if len(gens) != code.dim or len({g.span.end for g in gens}) != code.dim:
        return False
    if rref(Mat.from_rows(code.field, t.m, [g.word for g in gens])).rows != code.dim:
        return False
    return is_isomorphic(t, product(code.field, gens, t.symbol_dims)).isomorphic


def minimal_span_generators(code: Subspace, cut: int) -> list[Generator]:
    """A generator basis whose spans are non-circular on the axis cut open at
    `cut`, with pairwise distinct start and end positions."""
    m = code.ambient_dim
    p = code.field.p
    order = [(cut + u) % m for u in range(m)]
    rotated = rref(Mat.from_rows(code.field, m, [[row[c] for c in order] for row in code.basis.entries]))
    rows = [list(r) for r in rotated.entries]

    def ends(row):
        return max(q for q, x in enumerate(row) if x)

    changed = True
    while changed:
        changed = False
        by_end: dict[int, int] = {}
        for idx, row in enumerate(rows):
            e = ends(row)
            if e in by_end:
                other = by_end[e]
                a, b = sorted((idx, other), key=lambda r: next(q for q, x in enumerate(rows[r]) if x))
                fac = (rows[a][e] * pow(rows[b][e], p - 2, p)) % p
                rows[a] = [(x - fac * y) % p for x, y in zip(rows[a], rows[b])]
                changed = True
                break
            by_end[e] = idx
    gens = []
    for row in rows:
        s = next(q for q, x in enumerate(row) if x)
        e = ends(row)
        word = [0] * m
        for q, x in enumerate(row):
            word[order[q]] = x
        gens.append(Generator(tuple(word), Span(order[s], e - s + 1, m)))
    return gens


def conventional_trellis(code: Subspace, cut: int) -> Trellis:
    """Minimal conventional trellis with the cycle cut open at `cut` (the
    state space there is trivial), built as a product of span generators."""
    gens = minimal_span_generators(code, cut)
    return product(code.field, gens, tuple([1] * code.ambient_dim))


# ---------------------------------------------------------------------------
# t-irreducibility and the driver


@dataclass(frozen=True)
class IrreducibilityDecision:
    tparam: int
    verdict: str  # "irreducible" | "reducible" | "sufficient-only"
    chi: int
    chi_dual: int
    certificate: dict | None
    steps: tuple[ReductionStep, ...]
    note: str = ""


def t_irreducibility(t: Trellis, tparam: int) -> IrreducibilityDecision:
    """Decide t-irreducibility through interval observability, constructing
    the dictated reduction when the trellis is reducible inside the span
    window; outside the window only the sufficient condition is reported."""
    if not is_tpoc(t):
        raise ValueError("t-irreducibility analysis requires a TPOC trellis")
    code = realized_code(t)
    if code.is_zero() or code.is_full():
        raise ValueError("t-irreducibility analysis requires the code and its dual to be nonzero")
    m = t.m
    if not 1 <= tparam <= m - 1:
        raise ValueError("t parameter out of range")
    chi = span_profile(code).chi
    chi_dual = span_profile(orthogonal(code)).chi
    memory = t_observability_profile(t)
    obs = memory.observable[m - tparam]
    ctr = memory.controllable[m - tparam]
    certificate = {
        "observable": {k: v for k, v in memory.observable.items()},
        "controllable": {k: v for k, v in memory.controllable.items()},
    }
    in_window = tparam == 1 or min(chi, chi_dual) > tparam
    if obs and ctr:
        verdict = "irreducible" if in_window else "sufficient-only"
        note = "" if in_window else "span window exceeded; only the sufficient condition applies"
        return IrreducibilityDecision(tparam, verdict, chi, chi_dual, certificate, (), note)
    if not in_window:
        return IrreducibilityDecision(
            tparam,
            "sufficient-only",
            chi,
            chi_dual,
            certificate,
            (),
            "interval observability fails but the span window is exceeded; no verdict",
        )
    # Reduce by r = t - 1 if length m - t + 1 fails too, else by r = t, on
    # the side whose intervals of length m - r are not all observable: a
    # 2-reduction for r = 1, else a zero-run reduction, keeping only its
    # strict step when r = t - 1.
    finer = m - tparam + 1
    finer_fails = tparam > 1 and not (memory.observable[finer] and memory.controllable[finer])
    r = tparam - 1 if finer_fails else tparam
    work, label = (t, "primal") if not memory.observable[m - r] else (dualize(t), "dual")
    if r == 1:
        steps = two_reduction_m1(work).primal_steps
    else:
        cons, strict = zero_run_reduce(work, _first_unobservable_start(work, m - r), r)
        steps = (strict,) if r < tparam else (cons, strict)
    if r < tparam:
        note = f"strict conservative {tparam}-reduction"
    elif r == 1:
        note = "strict and conservative 2-reduction constructed"
    else:
        note = f"non-strict conservative {tparam}-reduction and strict ({tparam + 1})-reduction"
    note += f" on the {label} side"
    return IrreducibilityDecision(
        tparam, "reducible", chi, chi_dual, certificate, steps, note
    )


def _first_unobservable_start(t: Trellis, length: int) -> int:
    for j in range(t.m):
        u = transition_relation(t, Span(j, length, t.m), "unobservable")
        if not u.is_zero():
            return j
    raise ValueError(f"no unobservable fragment of length {length}")


@dataclass(frozen=True)
class ReductionReport:
    initial: Trellis
    final: Trellis
    steps: tuple[ReductionStep, ...]
    status: str  # "reduced" | "no-applicable-method"

    def records(self) -> list[dict]:
        return [s.record() for s in self.steps]


def _next_driver_steps(t: Trellis) -> tuple[ReductionStep, ...] | None:
    """One round of the cheapest applicable repair, or None at a fixpoint."""
    m = t.m
    for i in range(m):
        trim_ok, proper_ok = local_flags(t, i)
        if not trim_ok:
            _, inter = lattice(*_adjacent_onto_state(t, i, project))
            return (trim_step(t, i, inter, note="restore local trimness"),)
        if not proper_ok:
            total, _ = lattice(*_adjacent_onto_state(t, i, cross_section))
            return (merge_step(t, i, total, note="restore local properness"),)
    if not observable(t):
        return (unobs_trim(t),)
    if not controllable(t):
        idx, _, _, rest = _unobservable_line(dualize(t))
        return (merge_step(t, idx, orthogonal(rest), note="dual unobservable run"),)
    gt = global_trim_flags(t)
    for i in range(m):
        if not gt.state_trim_at[i]:
            used = project(behavior(t), t.state_columns(i))
            return (trim_step(t, i, used, note="remove unused states"),)
    gtd = global_trim_flags(dualize(t))
    for i in range(m):
        if not gtd.state_trim_at[i]:
            used = project(behavior(dualize(t)), t.state_columns(i))
            return (merge_step(t, i, orthogonal(used), note="merge unreachable dual states"),)
    for i in range(m):
        if not gt.branch_trim_at[i]:
            return (branch_trim_step(t, i),)
    if not gtd.branch_trim:
        two = two_reduction_m1(t)
        return two.primal_steps
    for work, j, tlen in _zero_run_sites(t):
        _, strict = zero_run_reduce(work, j, tlen)
        if work is t:
            return (strict,)
        after = dualize(strict.result)
        return (_restated(strict, t, after, Span(*strict.interval, m), side="dual"),)
    return None


def reduce_driver(t: Trellis) -> ReductionReport:
    """Apply the constructive toolbox until no method applies.

    Every strict step lowers the total state dimension and the non-strict
    steps lower total constraint dimension at fixed state profile, so the
    loop terminates."""
    steps: list[ReductionStep] = []
    current = t
    for _ in range(MAX_DRIVER_ROUNDS):
        batch = _next_driver_steps(current)
        if batch is None:
            break
        steps.extend(batch)
        current = batch[-1].result
    else:
        raise RuntimeError("reduction driver failed to reach a fixpoint")
    if realized_code(current) != realized_code(t):
        raise RuntimeError("driver broke code preservation")
    status = "no-applicable-method" if not steps else "reduced"
    return ReductionReport(t, current, tuple(steps), status)


# ---------------------------------------------------------------------------
# replay


def apply_step(t: Trellis, record: dict) -> Trellis:
    """Re-apply one serialized step record; the transformations are
    deterministic, so replay reproduces results exactly."""
    kind = record["kind"]
    params = record["params"]
    field_ = t.field
    if kind in ("trim", "merge"):
        y = Subspace.span(field_, t.state_dims[params["time"]], params["basis"])
        return _state_step(kind, t, params["time"], y).result
    if kind == "branch-trim":
        return branch_trim_step(t, params["time"]).result
    if kind == "branch-expand":
        amb = t.constraints[params["time"]].ambient_dim
        nb = Subspace.span(field_, amb, params["basis"])
        return branch_expand_step(t, params["time"], nb).result
    if kind == "unobs-trim":
        idx = params["time"] if params.get("chosen") else None
        return unobs_trim(t, choose_index=idx).result
    if kind == "expand":
        pair = (tuple(params["witness_start"]), tuple(params["witness_end"]))
        return expand_step(t, params["start"], params["tlen"], pair).result
    if kind == "zero-run":
        work = dualize(t) if params.get("side") == "dual" else t
        cons, strict = zero_run_reduce(work, params["start"], params["tlen"])
        out = (strict if params["phase"] == "strict" else cons).result
        return dualize(out) if params.get("side") == "dual" else out
    raise ValueError(f"unknown step kind {kind!r}")


def replay(t: Trellis, records) -> Trellis:
    current = t
    for rec in records:
        current = apply_step(current, rec)
    return current
