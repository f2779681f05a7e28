"""Command-line front end.

Exit codes: 0 success, 2 "no applicable method" (the reduction toolbox has
nothing to offer, or a requested method's precondition does not hold),
1 errors such as unparseable files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .trellis import Span, dualize
from .analysis import FLAG_NAMES, global_trim_flags, property_report
from .fragments import (
    is_fragment_trim,
    is_jk_controllable,
    is_jk_observable,
    t_observability_profile,
    transition_relation,
)
from .reduction import (
    branch_trim_step,
    reduce_driver,
    two_reduction_m1,
    unobs_trim,
    zero_run_reduce,
)
from . import corpus, render, specfile


def _load(path: str):
    try:
        return specfile.parse(Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: no such file: {path}")
    except OSError as exc:
        raise SystemExit(f"error: {path}: {exc.strerror or exc}")
    except (UnicodeDecodeError, specfile.SpecFileError) as exc:
        raise SystemExit(f"error: {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SystemExit(f"error: {path}: {exc.strerror or exc}")


def _parse_interval(text: str, m: int) -> Span:
    try:
        start_text, len_text = text.split(":", 1)
        return Span(int(start_text) % m, int(len_text), m)
    except (ValueError, IndexError):
        raise SystemExit(f"error: bad interval {text!r}, expected start:len")


def _report_dict(t, rep) -> dict:
    return {
        "length": t.m,
        "field": t.field.p,
        "symbol_dims": list(t.symbol_dims),
        "state_dims": list(t.state_dims),
        "constraint_dims": list(t.constraint_dims()),
        "behavior_dim": rep.behavior_dim,
        "code_dim": rep.code_dim,
        **{name: getattr(rep, name) for name in FLAG_NAMES},
        "trim_at": list(rep.trim_at),
        "proper_at": list(rep.proper_at),
        "state_trim_at": list(rep.state_trim_at),
        "branch_trim_at": list(rep.branch_trim_at),
        "unobservable_state_dim": rep.unobservable_state_space.dim,
    }


def cmd_analyze(args) -> int:
    t = _load(args.file)
    rep = property_report(t)
    data = _report_dict(t, rep)
    if args.fragment:
        iv = _parse_interval(args.fragment, t.m)
        data["fragment"] = {
            "start": iv.start,
            "len": iv.length,
            "transition_dim": transition_relation(t, iv, "full").dim,
            "unobservable_dim": transition_relation(t, iv, "unobservable").dim,
            "observable": is_jk_observable(t, iv),
            "controllable": is_jk_controllable(t, iv),
            "trim": is_fragment_trim(t, iv),
        }
    if args.t_profile:
        prof = t_observability_profile(t)
        data["t_profile"] = {
            "observable": {str(k): v for k, v in prof.observable.items()},
            "controllable": {str(k): v for k, v in prof.controllable.items()},
        }
    if args.report:
        _write(args.report, json.dumps(data, indent=1, sort_keys=True) + "\n")
    if args.format == "json":
        print(json.dumps(data, indent=1, sort_keys=True))
        return 0
    print(f"length {t.m} over GF({t.field.p})")
    print(f"state dims      {list(t.state_dims)}")
    print(f"constraint dims {list(t.constraint_dims())}")
    print(f"behavior dim {rep.behavior_dim}, code dim {rep.code_dim}")
    for name in FLAG_NAMES:
        print(f"{name:15s} {'undecided' if data[name] is None else data[name]}")
    for name, flags in (
        ("state-trim", rep.state_trim_at),
        ("branch-trim", rep.branch_trim_at),
        ("trim", rep.trim_at),
        ("proper", rep.proper_at),
    ):
        bad = [i for i, ok in enumerate(flags) if not ok]
        if bad:
            print(f"not {name} at time {', '.join(str(i) for i in bad)}")
    if "fragment" in data:
        f = data["fragment"]
        print(
            f"fragment [{f['start']},+{f['len']}): dim T={f['transition_dim']}, "
            f"dim U={f['unobservable_dim']}, observable={f['observable']}, "
            f"controllable={f['controllable']}, trim={f['trim']}"
        )
    if "t_profile" in data:
        prof = data["t_profile"]
        for tlen in sorted(prof["observable"], key=int):
            print(
                f"t={tlen}: observable={prof['observable'][tlen]} "
                f"controllable={prof['controllable'][tlen]}"
            )
    return 0


def cmd_dual(args) -> int:
    t = _load(args.file)
    _write(args.out, specfile.serialize(dualize(t)))
    print(f"wrote {args.out}")
    return 0


def _conservative_path(out: str) -> str:
    path = Path(out)
    if path.suffix == ".trellis":
        return str(path.with_name(path.stem + "-conservative.trellis"))
    return out + "-conservative"


def cmd_reduce(args) -> int:
    t = _load(args.file)
    method = args.method[0]
    steps = []
    final = None
    try:
        if method == "auto":
            report = reduce_driver(t)
            if report.status == "no-applicable-method":
                print("no applicable method")
                return 2
            steps = list(report.steps)
            final = report.final
        elif method == "unobs-trim":
            step = unobs_trim(t)
            steps, final = [step], step.result
        elif method == "branch-trim":
            bad = [i for i, ok in enumerate(global_trim_flags(t).branch_trim_at) if not ok]
            if not bad:
                print("no applicable method: already branch-trim")
                return 2
            step = branch_trim_step(t, bad[0])
            steps, final = [step], step.result
        elif method == "two-reduction":
            two = two_reduction_m1(t)
            steps, final = list(two.primal_steps), two.primal_result
        elif method == "zero-run":
            if len(args.method) < 2:
                raise SystemExit("error: zero-run needs an interval start:len")
            iv = _parse_interval(args.method[1], t.m)
            cons, strict = zero_run_reduce(t, iv.start, t.m - iv.length)
            _write(_conservative_path(args.out), specfile.serialize(cons.result))
            steps, final = [cons, strict], strict.result
        else:
            raise SystemExit(f"error: unknown method {method!r}")
    except ValueError as exc:
        print(f"no applicable method: {exc}")
        return 2
    _write(args.out, specfile.serialize(final))
    log_path = args.log or (args.out + ".steps.jsonl")
    _write(log_path, "".join(json.dumps(step.record(), sort_keys=True) + "\n" for step in steps))
    for step in steps:
        flags = []
        if step.strict:
            flags.append("strict")
        if step.conservative:
            flags.append("conservative")
        interval = f"[{step.interval[0]},+{step.interval[1]})"
        print(f"{step.kind} {interval} {' '.join(flags)}")
    print(f"wrote {args.out} and {log_path}")
    return 0


def cmd_render(args) -> int:
    t = _load(args.file)
    try:
        dot = render.to_dot(t)
    except ValueError as exc:
        raise SystemExit(f"error: {args.file}: {exc}")
    _write(args.out, dot)
    print(f"wrote {args.out}")
    return 0


def cmd_verify_corpus(args) -> int:
    directory = Path(args.corpus_dir) if args.corpus_dir else corpus.default_corpus_dir()
    only = set(args.only) if args.only else None
    try:
        results = corpus.verify_corpus(directory, only=only)
    except corpus.CorpusError as exc:
        raise SystemExit(f"error: {exc}")
    if not results:
        print("no corpus entries selected")
        return 1
    any_failed = False
    payload = []
    for r in results:
        ok = not r.failed
        any_failed = any_failed or not ok
        payload.append(
            {
                "id": r.entry_id,
                "passed": r.passed,
                "failed": [{"check": c, "detail": d} for c, d in r.failed],
            }
        )
        if args.format == "text":
            mark = "ok " if ok else "FAIL"
            print(f"{mark} {r.entry_id}: {r.passed} expectations")
            for check, detail in r.failed:
                print(f"     mismatch in {check}: {detail}")
    if args.format == "json":
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        total = sum(r.passed for r in results)
        failures = sum(len(r.failed) for r in results)
        print(f"{len(results)} entries, {total} expectations passed, {failures} failed")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="trellis-lab",
        description="analyze, dualize, render, and reduce tail-biting trellis realizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="property report for a trellis file")
    p.add_argument("file")
    p.add_argument("--fragment", metavar="START:LEN")
    p.add_argument("--t-profile", action="store_true")
    p.add_argument("--report", metavar="OUT.json", help="also write the report as JSON")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dual", help="write the dual trellis")
    p.add_argument("file")
    p.add_argument("out")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("reduce", help="apply a reduction method")
    p.add_argument("file")
    p.add_argument("out")
    p.add_argument(
        "--method",
        nargs="+",
        default=["auto"],
        metavar=("NAME", "START:LEN"),
        help="auto, unobs-trim, branch-trim, two-reduction, or zero-run START:LEN",
    )
    p.add_argument("--log", help="step log path (default: OUT.steps.jsonl)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("render", help="emit a DOT diagram")
    p.add_argument("file")
    p.add_argument("out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify-corpus", help="check the bundled example corpus")
    p.add_argument("--only", nargs="*", metavar="ID")
    p.add_argument("--corpus-dir")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_corpus)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
