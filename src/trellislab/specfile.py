"""Plain-text trellis spec files.

Explicit form lists the canonical basis of every constraint code as rows of
digit blocks separated by `|` (state-in | symbol | state-out), e.g. 10|1|10.
Product form lists generator words with circular spans (`word @ start+len`)
instead.  The two forms may not be mixed in one file.  Serialization always
emits the explicit form and round-trips bit-exactly.

Fields with p <= 7 use contiguous digits inside a block; larger primes use
comma-separated entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .galois import FieldSpec, Subspace
from .trellis import Generator, Span, Trellis, elementary, product


class SpecFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _format_block(entries, p: int) -> str:
    if p <= 7:
        return "".join(str(x) for x in entries)
    return ",".join(str(x) for x in entries)


def _parse_block(text: str, p: int, line: int) -> list[int]:
    if text == "":
        return []
    if "," in text or p > 7:
        parts = text.split(",")
    else:
        parts = list(text)
    try:
        values = [int(x) for x in parts]
    except ValueError:
        raise SpecFileError(f"bad digit block {text!r}", line)
    for v in values:
        if not 0 <= v < p:
            raise SpecFileError(f"entry {v} out of range for GF({p})", line)
    return values


def serialize(t: Trellis) -> str:
    p = t.field.p
    out = [
        f"field {p}",
        f"length {t.m}",
        "symbol-dims " + " ".join(str(d) for d in t.symbol_dims),
        "state-dims " + " ".join(str(d) for d in t.state_dims),
    ]
    for i, c in enumerate(t.constraints):
        out.append("")
        out.append(f"constraint {i}")
        for row in c.basis.entries:
            out.append("|".join(_format_block(blk, p) for blk in t.split(i, row)))
    return "\n".join(out) + "\n"


@dataclass
class _Parser:
    lines: list[tuple[int, str]]
    pos: int = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self):
        item = self.peek()
        if item is not None:
            self.pos += 1
        return item


def parse(text: str) -> Trellis:
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((no, stripped))
    parser = _Parser(lines)

    header: dict[str, object] = {}
    while True:
        item = parser.peek()
        if item is None:
            raise SpecFileError("missing constraint or generators section")
        no, line = item
        word = line.split()[0]
        if word in ("constraint", "generators"):
            break
        parser.next()
        parts = line.split()
        if word == "field":
            header["field"] = _expect_int(parts, 1, no)
        elif word == "length":
            header["length"] = _expect_int(parts, 1, no)
        elif word in ("symbol-dims", "state-dims"):
            dims = [_int_at(x, no) for x in parts[1:]]
            if any(d < 0 for d in dims):
                raise SpecFileError(f"{word} must not be negative", no)
            header[word] = dims
        else:
            raise SpecFileError(f"unknown header line {word!r}", no)

    for key in ("field", "length", "symbol-dims"):
        if key not in header:
            raise SpecFileError(f"missing {key} header")
    try:
        field_ = FieldSpec(int(header["field"]))
    except ValueError as exc:
        raise SpecFileError(str(exc))
    m = int(header["length"])
    if m < 1:
        raise SpecFileError("length must be at least 1")
    adims = list(header["symbol-dims"])
    if len(adims) != m:
        raise SpecFileError("symbol-dims must list one dimension per time index")

    no, first = parser.peek()
    if first.split()[0] == "generators":
        if "state-dims" in header:
            raise SpecFileError("state-dims are derived in product form", no)
        return _parse_generators(parser, field_, m, adims)
    if "state-dims" not in header:
        raise SpecFileError("missing state-dims header")
    sdims = list(header["state-dims"])
    if len(sdims) != m:
        raise SpecFileError("state-dims must list one dimension per time index")
    return _parse_constraints(parser, field_, m, adims, sdims)


def _expect_int(parts, idx, line) -> int:
    if len(parts) <= idx:
        raise SpecFileError("missing value", line)
    return _int_at(parts[idx], line)


def _int_at(text, line) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecFileError(f"expected integer, got {text!r}", line)


def _parse_constraints(parser, field_, m, adims, sdims) -> Trellis:
    rows_by_index: dict[int, list[list[int]]] = {}
    current: int | None = None
    while True:
        item = parser.next()
        if item is None:
            break
        no, line = item
        parts = line.split()
        if parts[0] == "constraint":
            current = _expect_int(parts, 1, no)
            if not 0 <= current < m:
                raise SpecFileError(f"constraint index {current} out of range", no)
            if current in rows_by_index:
                raise SpecFileError(f"duplicate constraint section {current}", no)
            rows_by_index[current] = []
            continue
        if parts[0] == "generators":
            raise SpecFileError("cannot mix explicit and product forms", no)
        if current is None:
            raise SpecFileError("row outside a constraint section", no)
        blocks = line.split("|")
        if len(blocks) != 3:
            raise SpecFileError("constraint rows need state|symbol|state blocks", no)
        dl = sdims[current]
        da = adims[current]
        dr = sdims[(current + 1) % m]
        vals = []
        for blk, want in zip(blocks, (dl, da, dr)):
            got = _parse_block(blk.strip(), field_.p, no)
            if len(got) != want:
                raise SpecFileError(
                    f"block {blk!r} has {len(got)} entries, expected {want}", no
                )
            vals.extend(got)
        rows_by_index[current].append(vals)
    constraints = []
    for i in range(m):
        if i not in rows_by_index:
            raise SpecFileError(f"missing constraint section {i}")
        amb = sdims[i] + adims[i] + sdims[(i + 1) % m]
        constraints.append(Subspace.span(field_, amb, rows_by_index[i]))
    return Trellis(field_, m, tuple(adims), tuple(sdims), tuple(constraints))


def _parse_generators(parser, field_, m, adims) -> Trellis:
    parser.next()  # consume the section header
    gens = []
    while True:
        item = parser.next()
        if item is None:
            break
        no, line = item
        if line.split()[0] == "constraint":
            raise SpecFileError("cannot mix explicit and product forms", no)
        if "@" not in line:
            raise SpecFileError("generator lines look like: word @ start+len", no)
        word_text, span_text = (part.strip() for part in line.split("@", 1))
        if "+" not in span_text:
            raise SpecFileError("span looks like start+len", no)
        start_text, len_text = span_text.split("+", 1)
        start = _int_at(start_text.strip(), no)
        length = _int_at(len_text.strip(), no)
        if "|" in word_text:
            blocks = word_text.split("|")
            if len(blocks) != m:
                raise SpecFileError(f"word needs {m} blocks", no)
            word: list[int] = []
            for i, blk in enumerate(blocks):
                got = _parse_block(blk.strip(), field_.p, no)
                if len(got) != adims[i]:
                    raise SpecFileError(f"word block {i} has wrong width", no)
                word.extend(got)
        else:
            if any(d != 1 for d in adims):
                raise SpecFileError("plain words need one-dimensional symbols", no)
            word = _parse_block(word_text, field_.p, no)
            if len(word) != m:
                raise SpecFileError(f"word needs {m} digits", no)
        try:
            span = Span(start, length, m)
        except ValueError as exc:
            raise SpecFileError(str(exc), no)
        gens.append(Generator(tuple(word), span))
    if not gens:
        raise SpecFileError("generators section is empty")
    try:
        parts = [elementary(field_, g, tuple(adims)) for g in gens]
        return product(parts)
    except ValueError as exc:
        raise SpecFileError(str(exc))
