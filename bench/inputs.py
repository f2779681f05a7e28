"""Seeded synthetic product trellises in generator form.

Each family is `draws` trellises of one length m over one field.  (With
several lengths in one family the median op time fell between two size
classes and moved by about 20% from seed to seed.)  A trellis gets k = m/2
generators over symbol dims 1.  Span lengths are uniform in [lo, hi], drawn
as a shuffled balanced multiset per trellis, and generator starts are
uniform within k equal slots of the axis.  This is stratified sampling:
both are uniform at the margin, but two draws differ less in total state
dimension and overlap than independent draws would.  Words are uniform over
GF(p) inside the span, with nonzero end symbols so that the span is tight.

The same (family, seed) always gives the same files.

    python3 bench/inputs.py reduce-gf2 --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20121212


@dataclass(frozen=True)
class Family:
    field: int
    length: int
    draws: int
    span_lo: int
    span_hi: int


FAMILIES = {
    "reduce-gf2": Family(field=2, length=16, draws=48, span_lo=2, span_hi=8),
    "analyze-gf3": Family(field=3, length=20, draws=12, span_lo=2, span_hi=6),
}


def _balanced(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    values: list[int] = []
    while len(values) < k:
        cycle = list(range(lo, hi + 1))
        rng.shuffle(cycle)
        values += cycle
    values = values[:k]
    rng.shuffle(values)
    return values


def product_spec(rng: random.Random, p: int, m: int, lo: int, hi: int) -> str:
    """One generator-form spec file: k = m/2 generators of span length lo..hi."""
    k = m // 2
    lines = [f"field {p}", f"length {m}", "symbol-dims " + " ".join(["1"] * m), "", "generators"]
    for j, span_len in enumerate(_balanced(rng, k, lo, hi)):
        slot_lo, slot_hi = (j * m) // k, ((j + 1) * m) // k
        start = slot_lo + rng.randrange(slot_hi - slot_lo)
        word = [0] * m
        for u in range(span_len):
            end = u in (0, span_len - 1)
            word[(start + u) % m] = rng.randrange(1, p) if end else rng.randrange(p)
        lines.append("".join(str(x) for x in word) + f" @ {start}+{span_len}")
    return "\n".join(lines) + "\n"


def write_family(name: str, seed: int, out: Path) -> list[Path]:
    """Write the family's spec files into `out`, in draw order."""
    fam = FAMILIES[name]
    rng = random.Random(f"{name}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for draw in range(fam.draws):
        path = out / f"gf{fam.field}-m{fam.length}-d{draw}.trellis"
        path.write_text(product_spec(rng, fam.field, fam.length, fam.span_lo, fam.span_hi))
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=sorted(FAMILIES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write_family(args.family, args.seed, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
