"""Bundled worked-example corpus.

Every entry is built programmatically here (the bundled data files are the
serialized results), carries a manifest of expected properties, and, where
one trellis arises from another by a reduction, a replayable chain of step
records.  Manifests assert dimensions, flags, subspace-level values, and
isomorphism, never literal state labels, since those are arbitrary.

fig14a/fig14b are witnesses found by exhaustive search over small
realizations: disconnected yet controllable trellises of the zero code, the
second with a nonlinear zero component.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .galois import GF2, Subspace, orthogonal
from .trellis import (
    Generator,
    Span,
    Trellis,
    dualize,
    is_isomorphic,
    product,
    realized_code,
)
from .analysis import FLAG_NAMES, classify_chain, property_report
from .fragments import is_jk_observable, t_observability_profile
from .reduction import (
    _zero_run_sites,
    conventional_trellis,
    expand_step,
    find_zero_run_witness,
    is_kv_trellis,
    merge_step,
    reduce_driver,
    replay,
    span_profile,
    t_irreducibility,
    trim_step,
    two_reduction_m1,
    zero_run_reduce,
)
from . import specfile


def _gen(word: str, start: int, length: int, m: int) -> Generator:
    return Generator(tuple(int(c) for c in word), Span(start, length, m))


def _prod(m: int, gens) -> Trellis:
    return product(GF2, gens, tuple([1] * m))


@dataclass
class CorpusBundle:
    trellises: dict[str, Trellis]
    manifests: list[dict]
    chains: dict[str, list[dict]]


def build_corpus() -> CorpusBundle:
    trellises: dict[str, Trellis] = {}
    chains: dict[str, list[dict]] = {}

    fig1a = _prod(3, [_gen("101", 0, 3, 3), _gen("110", 1, 3, 3)])
    fig1b = dualize(fig1a)
    y11 = Subspace.span(GF2, 2, [[1, 1]])
    s_merge = merge_step(fig1a, 2, y11)
    s_trim = trim_step(fig1b, 2, y11)
    fig2a, fig2b = s_merge.result, s_trim.result
    chains["fig1a__fig2a"] = [s_merge.record()]
    chains["fig1b__fig2b"] = [s_trim.record()]

    fig3a = _prod(5, [_gen("01110", 1, 3, 5), _gen("10010", 3, 3, 5), _gen("01101", 2, 5, 5)])
    fig3b = dualize(fig3a)
    two3 = two_reduction_m1(fig3a)
    fig4a = two3.primal_steps[0].result
    fig4b = two3.dual_steps[0].result
    chains["fig3a__fig4a"] = [two3.primal_steps[0].record()]
    chains["fig3b__fig4b"] = [two3.dual_steps[0].record()]
    y01 = Subspace.span(GF2, 2, [[0, 1]])
    s5a = trim_step(fig4a, 4, y01)
    s5b = merge_step(fig4b, 4, orthogonal(y01))
    fig5a, fig5b = s5a.result, s5b.result
    chains["fig4a__fig5a"] = [s5a.record()]
    chains["fig4b__fig5b"] = [s5b.record()]

    wit5 = find_zero_run_witness(fig5a, 0, 2)
    s6 = expand_step(fig5a, 0, 2, wit5[0])
    fig6 = s6.result
    chains["fig5a__fig6"] = [s6.record()]

    fig7 = _prod(
        9,
        [
            _gen("110110000", 0, 5, 9),
            _gen("010100000", 1, 3, 9),
            _gen("000011010", 4, 4, 9),
            _gen("100000011", 7, 3, 9),
            _gen("011000001", 8, 4, 9),
            _gen("110001101", 5, 6, 9),
        ],
    )
    wit7 = find_zero_run_witness(fig7, 0, 3)
    s8 = expand_step(fig7, 0, 3, wit7[0])
    fig8 = s8.result
    chains["fig7__fig8"] = [s8.record()]
    cons7, strict7 = zero_run_reduce(fig7, 0, 3)
    fig9 = strict7.result
    chains["fig7__fig9"] = [strict7.record()]

    fig10a = _prod(6, [_gen("101100", 0, 4, 6), _gen("001101", 2, 4, 6), _gen("011011", 4, 5, 6)])
    fig10b = dualize(fig10a)
    fig12a = conventional_trellis(realized_code(fig10a), 5)
    fig12b = dualize(fig12a)

    fig14a = Trellis(
        GF2,
        2,
        (1, 1),
        (2, 2),
        (
            Subspace.span(GF2, 5, [[1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]),
            Subspace.span(GF2, 5, [[1, 0, 0, 0, 1], [0, 1, 0, 1, 1]]),
        ),
    )
    fig14b = Trellis(
        GF2,
        2,
        (1, 1),
        (2, 2),
        (
            Subspace.span(GF2, 5, [[1, 0, 0, 0, 1], [0, 1, 0, 1, 0]]),
            Subspace.span(GF2, 5, [[1, 0, 0, 0, 0], [0, 0, 1, 1, 0]]),
        ),
    )

    sec8 = _prod(
        7,
        [
            _gen("0010100", 2, 3, 7),
            _gen("0001011", 3, 4, 7),
            _gen("1000100", 4, 4, 7),
            _gen("0110001", 6, 4, 7),
        ],
    )

    trellises.update(
        fig1a=fig1a,
        fig1b=fig1b,
        fig2a=fig2a,
        fig2b=fig2b,
        fig3a=fig3a,
        fig3b=fig3b,
        fig4a=fig4a,
        fig4b=fig4b,
        fig5a=fig5a,
        fig5b=fig5b,
        fig6=fig6,
        fig7=fig7,
        fig8=fig8,
        fig9=fig9,
        fig10a=fig10a,
        fig10b=fig10b,
        fig12a=fig12a,
        fig12b=fig12b,
        fig14a=fig14a,
        fig14b=fig14b,
    )
    trellises["sec8-chain-example"] = sec8
    return CorpusBundle(trellises, _manifests(), chains)


def _flag(name: str, want: bool, origin: str = "stated") -> dict:
    return {"check": "flag", "name": name, "want": want, "origin": origin}


def _manifests() -> list[dict]:
    return [
        {
            "id": "fig1a",
            "file": "fig1a.trellis",
            "expect": [
                _flag("tpoc", True),
                _flag("state_trim", True),
                _flag("branch_trim", True),
                _flag("nonmergeable", False),
                _flag("connected", True, "computed"),
                {"check": "state_dims", "want": [1, 1, 2], "origin": "stated"},
                {"check": "code_words", "want": ["000", "110", "101", "011"], "origin": "stated"},
                {"check": "dual_isomorphic_to", "want": "fig1b", "origin": "stated"},
                {"check": "t_flag", "kind": "observable", "t": 3, "want": False, "origin": "stated"},
                {"check": "classify", "tparam": 2, "want": {"tsb_poc": True, "ntsb_poc": False}, "origin": "stated"},
                {"check": "chain", "source": "fig1a", "steps": "chains/fig1a__fig2a.jsonl", "target": "fig2a", "origin": "stated"},
                {"check": "driver_final_conventional", "want": True, "origin": "stated"},
            ],
        },
        {
            "id": "fig1b",
            "file": "fig1b.trellis",
            "expect": [
                _flag("tpoc", True),
                _flag("nonmergeable", True, "computed"),
                {"check": "not_state_trim_at", "want": [2], "origin": "stated"},
                {"check": "code_words", "want": ["000", "111"], "origin": "stated"},
                {"check": "chain", "source": "fig1b", "steps": "chains/fig1b__fig2b.jsonl", "target": "fig2b", "origin": "stated"},
            ],
        },
        {
            "id": "fig2a",
            "file": "fig2a.trellis",
            "expect": [
                _flag("observable", False),
                _flag("controllable", True, "computed"),
                {"check": "state_dims", "want": [1, 1, 1], "origin": "computed"},
                {"check": "code_equals", "other": "fig1a", "origin": "stated"},
                {"check": "dual_isomorphic_to", "want": "fig2b", "origin": "stated"},
            ],
        },
        {
            "id": "fig2b",
            "file": "fig2b.trellis",
            "expect": [
                _flag("observable", True, "computed"),
                _flag("controllable", False),
                _flag("branch_trim", True),
                _flag("connected", False),
                {"check": "t_flag", "kind": "observable", "t": 3, "want": True, "origin": "stated"},
                {"check": "t_flag", "kind": "controllable", "t": 1, "want": False, "origin": "stated"},
                {"check": "t_flag", "kind": "controllable", "t": 2, "want": False, "origin": "stated"},
                {"check": "t_flag", "kind": "controllable", "t": 3, "want": False, "origin": "stated"},
                {"check": "code_equals_dual_of", "other": "fig1a", "origin": "stated"},
            ],
        },
        {
            "id": "fig3a",
            "file": "fig3a.trellis",
            "expect": [
                _flag("tpoc", True),
                _flag("state_trim", True),
                _flag("branch_trim", True),
                _flag("nonmergeable", True),
                {"check": "state_dims", "want": [2, 1, 1, 2, 2], "origin": "computed"},
                {"check": "code_dim", "want": 3, "origin": "stated"},
                {"check": "t_flag", "kind": "observable", "t": 5, "want": True, "origin": "stated"},
                {"check": "t_flag", "kind": "observable", "t": 4, "want": False, "origin": "stated"},
                {"check": "dual_isomorphic_to", "want": "fig3b", "origin": "stated"},
                {"check": "chain", "source": "fig3a", "steps": "chains/fig3a__fig4a.jsonl", "target": "fig4a", "origin": "stated"},
                {"check": "driver_final_conventional", "want": True, "origin": "stated"},
            ],
        },
        {
            "id": "fig3b",
            "file": "fig3b.trellis",
            "expect": [
                _flag("tpoc", True),
                _flag("state_trim", True),
                _flag("nonmergeable", True),
                {"check": "not_branch_trim_at", "want": [4], "origin": "stated"},
                {"check": "constraint_dim_at", "time": 4, "want": 3, "origin": "stated"},
                {"check": "chain", "source": "fig3b", "steps": "chains/fig3b__fig4b.jsonl", "target": "fig4b", "origin": "stated"},
            ],
        },
        {
            "id": "fig4a",
            "file": "fig4a.trellis",
            "expect": [
                _flag("observable", False),
                _flag("controllable", True, "computed"),
                {"check": "state_dims", "want": [2, 1, 1, 2, 2], "origin": "computed"},
                {"check": "code_equals", "other": "fig3a", "origin": "stated"},
                {"check": "dual_isomorphic_to", "want": "fig4b", "origin": "stated"},
                {"check": "chain", "source": "fig4a", "steps": "chains/fig4a__fig5a.jsonl", "target": "fig5a", "origin": "stated"},
            ],
        },
        {
            "id": "fig4b",
            "file": "fig4b.trellis",
            "expect": [
                _flag("observable", True, "computed"),
                _flag("controllable", False),
                _flag("branch_trim", True),
                _flag("connected", False),
                {"check": "t_flag", "kind": "controllable", "t": 5, "want": False, "origin": "stated"},
                {"check": "code_equals_dual_of", "other": "fig3a", "origin": "stated"},
                {"check": "chain", "source": "fig4b", "steps": "chains/fig4b__fig5b.jsonl", "target": "fig5b", "origin": "stated"},
            ],
        },
        {
            "id": "fig5a",
            "file": "fig5a.trellis",
            "expect": [
                _flag("tpoc", True),
                {"check": "state_dims", "want": [2, 1, 1, 2, 1], "origin": "stated"},
                {"check": "code_equals", "other": "fig3a", "origin": "stated"},
                {"check": "jk_observable", "start": 0, "len": 3, "want": False, "origin": "stated"},
                {"check": "condition", "start": 0, "tlen": 2, "want": "A", "origin": "stated"},
                {"check": "dual_isomorphic_to", "want": "fig5b", "origin": "stated"},
                {"check": "chain", "source": "fig5a", "steps": "chains/fig5a__fig6.jsonl", "target": "fig6", "origin": "stated"},
            ],
        },
        {
            "id": "fig5b",
            "file": "fig5b.trellis",
            "expect": [
                _flag("tpoc", True, "computed"),
                {"check": "code_equals_dual_of", "other": "fig3a", "origin": "stated"},
            ],
        },
        {
            "id": "fig6",
            "file": "fig6.trellis",
            "expect": [
                _flag("observable", False, "computed"),
                {"check": "state_dims", "want": [2, 1, 1, 2, 2], "origin": "stated"},
                {"check": "code_equals", "other": "fig3a", "origin": "stated"},
            ],
        },
        {
            "id": "fig7",
            "file": "fig7.trellis",
            "expect": [
                _flag("tpoc", True),
                _flag("state_trim", True),
                _flag("branch_trim", True),
                {"check": "state_dims", "want": [3, 3, 3, 2, 1, 1, 2, 2, 2], "origin": "computed"},
                {"check": "code_dim", "want": 6, "origin": "computed"},
                {"check": "chi", "want": 3, "origin": "stated"},
                {"check": "chi_dual", "want": 6, "origin": "stated"},
                {"check": "t_flag", "kind": "observable", "t": 7, "want": True, "origin": "stated"},
                {"check": "t_flag", "kind": "controllable", "t": 7, "want": True, "origin": "stated"},
                {"check": "t_flag", "kind": "observable", "t": 6, "want": False, "origin": "stated"},
                {"check": "jk_observable", "start": 0, "len": 6, "want": False, "origin": "stated"},
                {"check": "condition", "start": 0, "tlen": 3, "want": "A", "origin": "stated"},
                {"check": "t_irreducible", "tparam": 2, "want": "irreducible", "origin": "stated"},
                {"check": "kv", "want": False, "origin": "stated"},
                {"check": "chain", "source": "fig7", "steps": "chains/fig7__fig8.jsonl", "target": "fig8", "origin": "stated"},
                {"check": "chain", "source": "fig7", "steps": "chains/fig7__fig9.jsonl", "target": "fig9", "origin": "stated"},
            ],
        },
        {
            "id": "fig8",
            "file": "fig8.trellis",
            "expect": [
                _flag("observable", False, "computed"),
                {"check": "state_dims", "want": [3, 3, 3, 2, 1, 1, 2, 3, 3], "origin": "stated"},
                {"check": "code_equals", "other": "fig7", "origin": "stated"},
            ],
        },
        {
            "id": "fig9",
            "file": "fig9.trellis",
            "expect": [
                _flag("tpoc", True, "computed"),
                {"check": "state_dims", "want": [3, 3, 3, 2, 1, 1, 1, 2, 2], "origin": "stated"},
                {"check": "code_equals", "other": "fig7", "origin": "stated"},
                {"check": "t_flag", "kind": "observable", "t": 7, "want": True, "origin": "stated"},
                {"check": "t_flag", "kind": "controllable", "t": 7, "want": True, "origin": "stated"},
                {"check": "no_zero_run_witness", "want": True, "origin": "stated"},
                {"check": "driver_status", "want": "no-applicable-method", "origin": "computed"},
            ],
        },
        {
            "id": "fig10a",
            "file": "fig10a.trellis",
            "expect": [
                _flag("tpoc", True),
                _flag("state_trim", True),
                _flag("branch_trim", True),
                _flag("nonmergeable", True, "computed"),
                {"check": "state_dims", "want": [1, 2, 2, 2, 1, 2], "origin": "computed"},
                {"check": "chi", "want": 2, "origin": "stated"},
                {"check": "chi_dual", "want": 3, "origin": "stated"},
                {"check": "no_zero_run_witness", "want": True, "origin": "stated"},
                {"check": "driver_status", "want": "no-applicable-method", "origin": "stated"},
                {"check": "dual_isomorphic_to", "want": "fig10b", "origin": "stated"},
            ],
        },
        {
            "id": "fig10b",
            "file": "fig10b.trellis",
            "expect": [
                _flag("tpoc", True),
                {"check": "no_zero_run_witness", "want": True, "origin": "stated"},
                {"check": "code_equals_dual_of", "other": "fig10a", "origin": "stated"},
            ],
        },
        {
            "id": "fig12a",
            "file": "fig12a.trellis",
            "expect": [
                _flag("tpoc", True, "computed"),
                {"check": "state_dims", "want": [1, 1, 2, 2, 1, 0], "origin": "computed"},
                {"check": "code_equals", "other": "fig10a", "origin": "stated"},
                {"check": "t_irreducible", "tparam": 1, "want": "irreducible", "origin": "stated"},
            ],
        },
        {
            "id": "fig12b",
            "file": "fig12b.trellis",
            "expect": [
                {"check": "state_dims", "want": [1, 1, 2, 2, 1, 0], "origin": "computed"},
                {"check": "code_equals_dual_of", "other": "fig10a", "origin": "stated"},
                {"check": "dual_isomorphic_to", "want": "fig12a", "origin": "definitional"},
            ],
        },
        {
            "id": "fig14a",
            "file": "fig14a.trellis",
            "expect": [
                _flag("controllable", True),
                _flag("connected", False),
                _flag("state_trim", False),
                {"check": "code_dim", "want": 0, "origin": "stated"},
            ],
        },
        {
            "id": "fig14b",
            "file": "fig14b.trellis",
            "expect": [
                _flag("controllable", True),
                _flag("connected", False),
                _flag("state_trim", False),
                {"check": "code_dim", "want": 0, "origin": "stated"},
            ],
        },
        {
            "id": "sec8-chain-example",
            "file": "sec8-chain-example.trellis",
            "expect": [
                {"check": "state_dims", "want": [2, 1, 1, 1, 2, 2, 2], "origin": "computed"},
                {"check": "classify", "tparam": 2, "want": {"tsb_poc": True, "ntsb_poc": True, "irreducible_class": False, "within_chi_window": True}, "origin": "stated"},
            ],
        },
    ]


# ---------------------------------------------------------------------------
# data directory handling


def default_corpus_dir() -> Path:
    override = os.environ.get("TRELLIS_LAB_CORPUS_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus" / "data"


def write_corpus(directory: Path | str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "chains").mkdir(exist_ok=True)
    bundle = build_corpus()
    for name, t in bundle.trellises.items():
        (directory / f"{name}.trellis").write_text(specfile.serialize(t))
    for name, records in bundle.chains.items():
        text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
        (directory / "chains" / f"{name}.jsonl").write_text(text)
    (directory / "manifests.json").write_text(
        json.dumps(bundle.manifests, indent=1, sort_keys=True) + "\n"
    )


class CorpusError(Exception):
    """A manifest or entry file that cannot be read or understood; the
    message starts with the file's path."""


def _read(path: Path, parse):
    try:
        return parse(path.read_text())
    except OSError as exc:
        raise CorpusError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # SpecFileError, JSONDecodeError, UnicodeDecodeError
        raise CorpusError(f"{path}: {exc}") from exc


def load_chain(directory: Path, filename: str) -> list[dict]:
    lines = (Path(directory) / filename).read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


# ---------------------------------------------------------------------------
# manifest evaluation


def evaluate_expectation(
    exp: dict, t: Trellis, directory: Path, entries: dict[str, Trellis]
) -> tuple[bool, str]:
    """Evaluate one manifest expectation against the entry trellis t; other
    entries are read from `entries`, by file name.  Returns (ok, detail)."""
    kind = exp["check"]
    if kind == "flag":
        rep = property_report(t)
        mapping = {name: getattr(rep, name) for name in FLAG_NAMES}
        got = mapping[exp["name"]]
        return got == exp["want"], f"{exp['name']}={got}"
    if kind == "state_dims":
        got = list(t.state_dims)
        return got == exp["want"], f"state dims {got}"
    if kind == "constraint_dim_at":
        got = t.constraints[exp["time"]].dim
        return got == exp["want"], f"dim C_{exp['time']}={got}"
    if kind == "not_state_trim_at":
        rep = property_report(t)
        got = [i for i, ok in enumerate(rep.state_trim_at) if not ok]
        return got == exp["want"], f"state-trim failures at {got}"
    if kind == "not_branch_trim_at":
        rep = property_report(t)
        got = [i for i, ok in enumerate(rep.branch_trim_at) if not ok]
        return got == exp["want"], f"branch-trim failures at {got}"
    if kind == "code_dim":
        got = realized_code(t).dim
        return got == exp["want"], f"code dim {got}"
    if kind == "code_words":
        want = {tuple(int(c) for c in w) for w in exp["want"]}
        got = set(realized_code(t).vectors())
        return got == want, f"{len(got)} codewords"
    if kind == "code_equals":
        other = entries[exp["other"] + ".trellis"]
        ok = realized_code(t) == realized_code(other)
        return ok, f"code equals that of {exp['other']}: {ok}"
    if kind == "code_equals_dual_of":
        other = entries[exp["other"] + ".trellis"]
        ok = realized_code(t) == orthogonal(realized_code(other))
        return ok, f"code equals the dual of {exp['other']}: {ok}"
    if kind == "chi":
        got = span_profile(realized_code(t)).chi
        return got == exp["want"], f"chi={got}"
    if kind == "chi_dual":
        got = span_profile(orthogonal(realized_code(t))).chi
        return got == exp["want"], f"dual chi={got}"
    if kind == "t_flag":
        prof = t_observability_profile(t)
        table = prof.observable if exp["kind"] == "observable" else prof.controllable
        got = table[exp["t"]]
        return got == exp["want"], f"{exp['t']}-{exp['kind']}={got}"
    if kind == "jk_observable":
        got = is_jk_observable(t, Span(exp["start"], exp["len"], t.m))
        return got == exp["want"], f"[{exp['start']},+{exp['len']})-observable={got}"
    if kind == "condition":
        found = find_zero_run_witness(t, exp["start"], exp["tlen"])
        got = found[1] if found else None
        return got == exp["want"], f"witness condition {got}"
    if kind == "no_zero_run_witness":
        got = next(_zero_run_sites(t), None) is None
        return got == exp["want"], f"no witness anywhere: {got}"
    if kind == "dual_isomorphic_to":
        iso = is_isomorphic(dualize(t), entries[exp["want"] + ".trellis"])
        return iso.isomorphic is True, f"dual isomorphic to {exp['want']}: {iso.isomorphic}"
    if kind == "isomorphic_to":
        iso = is_isomorphic(t, entries[exp["want"] + ".trellis"])
        return iso.isomorphic is True, f"isomorphic to {exp['want']}: {iso.isomorphic}"
    if kind == "chain":
        got = replay(entries[exp["source"] + ".trellis"], load_chain(directory, exp["steps"]))
        ok = got == entries[exp["target"] + ".trellis"]
        return ok, f"replay reproduces {exp['target']}: {ok}"
    if kind == "driver_status":
        report = reduce_driver(t)
        return report.status == exp["want"], f"driver status {report.status}"
    if kind == "driver_final_conventional":
        report = reduce_driver(t)
        final = report.final
        rep = property_report(final)
        ok = (
            0 in final.state_dims
            and rep.tpoc
            and realized_code(final) == realized_code(t)
        )
        return ok == exp["want"], (
            f"driver final dims {list(final.state_dims)}, tpoc={rep.tpoc}"
        )
    if kind == "t_irreducible":
        decision = t_irreducibility(t, exp["tparam"])
        return decision.verdict == exp["want"], f"verdict {decision.verdict}"
    if kind == "kv":
        got = is_kv_trellis(t)
        return got == exp["want"], f"kv={got}"
    if kind == "classify":
        report = classify_chain(t, exp["tparam"])
        got = {
            "tsb_poc": report.tsb_poc,
            "ntsb_poc": report.ntsb_poc,
            "irreducible_class": report.irreducible_class,
            "within_chi_window": report.within_chi_window,
        }
        ok = all(got[k] == v for k, v in exp["want"].items())
        return ok, f"classes {got}"
    raise ValueError(f"unknown manifest check {kind!r}")


@dataclass
class VerifyResult:
    entry_id: str
    passed: int
    failed: list[tuple[str, str]]


def verify_corpus(directory: Path | str | None = None, only=None) -> list[VerifyResult]:
    """Check the selected manifest entries.  Every entry file is parsed once
    per run, before any check, and checks that name an entry share it; a
    manifest or entry file that cannot be read or understood raises
    CorpusError."""
    directory = Path(directory) if directory else default_corpus_dir()
    path = directory / "manifests.json"
    manifests = _read(path, json.loads)
    try:
        listed = [(e["id"], e["file"], [(x, x["check"]) for x in e["expect"]]) for e in manifests]
        paths = {filename: directory / filename for _, filename, _ in listed}
        selected = [entry for entry in listed if not only or entry[0] in only]
    except (TypeError, KeyError):
        shape = "a list of entries with an id, a file and a list of checks"
        raise CorpusError(f"{path}: expected {shape}") from None
    entries = {filename: _read(p, specfile.parse) for filename, p in paths.items()}
    results = []
    for entry_id, filename, expectations in selected:
        passed = 0
        failed: list[tuple[str, str]] = []
        for exp, check in expectations:
            try:
                ok, detail = evaluate_expectation(exp, entries[filename], directory, entries)
            except Exception as exc:
                ok, detail = False, f"check raised {exc!r}"
            if ok:
                passed += 1
            else:
                failed.append((check, detail))
        results.append(VerifyResult(entry_id, passed, failed))
    return results


if __name__ == "__main__":
    write_corpus(default_corpus_dir())
    print(f"corpus written to {default_corpus_dir()}")
