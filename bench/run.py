"""Benchmark of the trellis-lab command line, run in one process.

One closed-loop client on one thread sends one CLI op at a time through
`trellislab.cli.main(argv)`, with the argv a user would type, and checks
every op's output outside the timed region.  With `--trace 0` it prints the
end-to-end metrics, with op times in units of a fixed reference computation
timed next to each op (see `reference_s`); with `--trace 1` it pairs every
op with a traced rerun and prints the per-layer metrics (see tracer.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every check
passed.

    python3 bench/run.py --workload reduce-gf2 --seed 7 --seconds 20 --trace 0

The program is imported from `src/` next to this directory; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINNED = BENCH_DIR / "pinned.json"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import tracer  # noqa: E402

END_TO_END = (
    ("op_p50_ref", "ref", "lower"),
    ("op_tail_ref", "ref", "lower"),
    ("ops_per_ref", "1/ref", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)
SETUP_RUNS = 31
# The traced run covers the first inputs only: a traced op keeps about 200,000
# spans in memory, and a pass over all 48 `reduce-gf2` inputs traced would
# take a minute.  A fixed prefix keeps its counts identical from run to run.
TRACED_INPUTS = 16
SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import trellislab.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)
CORPUS_IDS = (
    "fig1a fig1b fig2a fig2b fig3a fig3b fig4a fig4b fig5a fig5b fig6 fig7 fig8 fig9 "
    "fig10a fig10b fig12a fig12b fig14a fig14b sec8-chain-example"
).split()
CORPUS_EXPECTATIONS = 129


def load_cli():
    """Import `trellislab.cli` from this checkout's `src/`, and nothing else."""
    package = SRC / "trellislab"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: program source not found at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from trellislab import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported trellislab from {cli.__file__}, not {package}")
    return cli


# ---------------------------------------------------------------------------
# ops and their checks


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...] = ()


@dataclass(frozen=True)
class Result:
    code: int | None
    stdout: str
    error: str | None = None


def run_op(cli, op: Op) -> tuple[float, Result]:
    """Run one CLI op; only the `main` call is timed."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    buf = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            error = None if isinstance(exc.code, int) else str(exc.code)
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, Result(code, buf.getvalue(), error)


class CorpusVerify:
    """The bundled corpus: every manifest expectation and chain replay."""

    name = "corpus-verify"

    def ops(self, work: Path, seed: int) -> list[Op]:
        # The corpus is fixed; the seed changes nothing here.
        return [Op("corpus", ("verify-corpus", "--format", "json"))]

    def check(self, cli, op: Op, result: Result) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}"
        entries = json.loads(result.stdout)
        ids = [e["id"] for e in entries]
        if sorted(ids) != sorted(CORPUS_IDS):
            return f"corpus entries {ids}"
        bad = [e["id"] for e in entries if e["failed"]]
        if bad:
            return f"failed expectations in {bad}"
        passed = sum(e["passed"] for e in entries)
        if passed != CORPUS_EXPECTATIONS:
            return f"{passed} expectations passed, expected {CORPUS_EXPECTATIONS}"
        return None


class ReduceGF2:
    """`reduce FILE OUT` with the auto driver on seeded GF(2) products."""

    name = "reduce-gf2"

    def ops(self, work: Path, seed: int) -> list[Op]:
        ops = []
        for path in inputs.write_family(self.name, seed, work / "inputs"):
            out = work / "out" / (path.stem + ".out.trellis")
            log = Path(str(out) + ".steps.jsonl")
            ops.append(Op(path.name, ("reduce", str(path), str(out)), (out, log)))
        (work / "out").mkdir(parents=True, exist_ok=True)
        return ops

    def check(self, cli, op: Op, result: Result) -> str | None:
        from trellislab import reduction, specfile

        if result.code == 2:
            if any(path.exists() for path in op.outputs):
                return "exit code 2 but output written"
            return None
        if result.code != 0:
            return f"exit code {result.code}"
        out, log = op.outputs
        source = specfile.parse(Path(op.argv[1]).read_text())
        records = [json.loads(line) for line in log.read_text().splitlines() if line.strip()]
        if not records:
            return "empty step log"
        replayed = specfile.serialize(reduction.replay(source, records))
        if replayed != out.read_text():
            return "replaying the step log does not reproduce OUT"
        return None


class AnalyzeGF3:
    """`analyze FILE --t-profile --format json` on seeded GF(3) products."""

    name = "analyze-gf3"

    def __init__(self) -> None:
        self._dual_profiles: dict[str, dict] = {}

    def ops(self, work: Path, seed: int) -> list[Op]:
        return [
            Op(path.name, ("analyze", str(path), "--t-profile", "--format", "json"))
            for path in inputs.write_family(self.name, seed, work / "inputs")
        ]

    def _dual_profile(self, cli, op: Op) -> dict:
        if op.name not in self._dual_profiles:
            source = Path(op.argv[1])
            dual = source.with_name(source.stem + ".dual.trellis")
            _, made = run_op(cli, Op("dual", ("dual", str(source), str(dual))))
            if made.code != 0:
                raise RuntimeError(f"dual {source} failed: {made}")
            _, res = run_op(cli, Op("dual-analyze", (*op.argv[:1], str(dual), *op.argv[2:])))
            if res.code != 0:
                raise RuntimeError(f"analyze {dual} failed: {res}")
            self._dual_profiles[op.name] = json.loads(res.stdout)["t_profile"]
        return self._dual_profiles[op.name]

    def check(self, cli, op: Op, result: Result) -> str | None:
        if result.code != 0:
            return f"exit code {result.code}"
        prof = json.loads(result.stdout)["t_profile"]
        dual = self._dual_profile(cli, op)
        if prof["observable"] != dual["controllable"]:
            return "t-observable profile differs from the dual's t-controllable profile"
        if prof["controllable"] != dual["observable"]:
            return "t-controllable profile differs from the dual's t-observable profile"
        return None


WORKLOADS = {w.name: w for w in (CorpusVerify, ReduceGF2, AnalyzeGF3)}


class Verifier:
    """Checks each input's first output in full and pins its digest; later
    outputs of the same input must repeat that digest byte for byte."""

    def __init__(self, cli, workload, work: Path, pinned: dict[str, str] | None):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.pinned = pinned
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []

    def digest(self, op: Op, result: Result) -> str:
        h = hashlib.sha256()
        h.update(f"{result.code}\n".encode())
        h.update(result.stdout.replace(str(self.work), "<work>").encode())
        for path in op.outputs:
            h.update(b"\0" + (path.read_bytes() if path.exists() else b"<missing>"))
        return h.hexdigest()

    def verify(self, op: Op, result: Result) -> bool:
        reason = self._reason(op, result)
        if reason is not None:
            self.failures.append(f"{op.name}: {reason}")
        return reason is None

    def _reason(self, op: Op, result: Result) -> str | None:
        if result.error is not None:
            return result.error
        digest = self.digest(op, result)
        known = self.digests.get(op.name)
        if known is not None:
            return None if digest == known else "output differs from this input's first output"
        try:
            reason = self.workload.check(self.cli, op, result)
        except Exception:
            return "check raised " + traceback.format_exc()
        if reason is not None:
            return reason
        if self.pinned is not None and self.pinned.get(op.name) != digest:
            return "output digest differs from the pinned digest"
        self.digests[op.name] = digest
        return None


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least ten samples
    above it, but not below p50: with fewer than twenty samples no higher
    percentile has ten above it, and the median is returned."""
    xs = sorted(times)
    n = len(xs)
    q = max(50, (100 * (n - 10)) // n)
    return q, xs[math.ceil(q * n / 100) - 1]


# The reference: reduce twelve fixed 32 x 48 matrices over GF(3) to row-echelon
# form with plain Python lists and ints, the kind of work `galois` does.
_REF_RNG = random.Random("trellis-lab reference")
REFERENCE = [[[_REF_RNG.randrange(3) for _ in range(48)] for _ in range(32)] for _ in range(12)]


def reference_s() -> float:
    """Wall seconds of one run of the fixed reference computation.

    It does not touch the program, so a change to the program cannot move
    it; it does slow down with the machine.  On a shared host the speed of
    the machine drifts by a third over minutes, and dividing each op's time
    by the reference timed next to it cancels most of that drift."""
    start = time.perf_counter()
    for matrix in REFERENCE:
        rows = [row[:] for row in matrix]
        pivot = 0
        for col in range(48):
            r = next((r for r in range(pivot, len(rows)) if rows[r][col]), None)
            if r is None:
                continue
            rows[pivot], rows[r] = rows[r], rows[pivot]
            inv = rows[pivot][col]  # 1 and 2 are their own inverses mod 3
            rows[pivot] = [x * inv % 3 for x in rows[pivot]]
            for r in range(len(rows)):
                if r != pivot and rows[r][col]:
                    f, prow = rows[r][col], rows[pivot]
                    rows[r] = [(a - f * b) % 3 for a, b in zip(rows[r], prow)]
            pivot += 1
    return time.perf_counter() - start


def setup_probe() -> float:
    """Seconds, in a fresh interpreter, to import `trellislab.cli`."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def measure(
    cli, ops: list[Op], verifier: Verifier, seconds: float, probes: int
) -> tuple[Tally, list[float], list[float], int, list[float]]:
    """One warm-up op, then whole passes over the ops until `seconds` of op
    time are measured, so every input is measured equally often.  The
    reference runs before the first op and after every op, so each op is
    bracketed by two reference timings.  Between ops, outside their timing,
    `probes` set-up probes run spread evenly over the measured time, so that
    set-up and op times see the same stretch of machine speed.  Returns the
    tally, the measured op times, the mean of each op's two reference times,
    how many measured ops passed their checks and the set-up times."""
    tally = Tally()
    _, result = run_op(cli, ops[0])
    tally.add(verifier.verify(ops[0], result))
    times: list[float] = []
    refs: list[float] = []
    setups: list[float] = []
    passed = 0
    before = reference_s()
    while not times or len(times) % len(ops) or sum(times) < seconds:
        op = ops[len(times) % len(ops)]
        elapsed, result = run_op(cli, op)
        after = reference_s()
        refs.append((before + after) / 2)
        before = after
        ok = verifier.verify(op, result)
        tally.add(ok)
        passed += ok
        times.append(elapsed)
        while len(setups) < probes and len(setups) * seconds < probes * sum(times):
            setups.append(setup_probe())
    while len(setups) < probes:
        setups.append(setup_probe())
    return tally, times, refs, passed, setups


def measure_traced(
    cli, ops: list[Op], verifier: Verifier, seconds: float, tr: tracer.Tracer
) -> tuple[Tally, float, float]:
    """Whole passes in which every op runs untraced and then traced, until
    `seconds` of op time are measured; returns (tally, untraced s, traced s)."""
    tally = Tally()
    _, result = run_op(cli, ops[0])
    tally.add(verifier.verify(ops[0], result))
    untraced = traced = 0.0
    op_id = 0
    while op_id == 0 or untraced + traced < seconds:
        for op in ops:
            elapsed, result = run_op(cli, op)
            tally.add(verifier.verify(op, result))
            untraced += elapsed
            with tr.installed(), tr.op(op_id):
                elapsed, result = run_op(cli, op)
            tally.add(verifier.verify(op, result))
            traced += elapsed
            op_id += 1
    return tally, untraced, traced


def end_to_end_metrics(
    tally: Tally, times: list[float], refs: list[float], passed: int, setup: float
) -> tuple[dict, int]:
    """Op times enter as multiples of the reference timed around each op."""
    ratios = [t / r for t, r in zip(times, refs)]
    q, tail = tail_percentile(ratios)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_ref": statistics.median(ratios),
        "op_tail_ref": tail,
        "ops_per_ref": passed / sum(ratios),
        "setup_s": setup,
        "peak_rss_mib": peak_kib / 1024,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }
    return metrics, q


def environment() -> dict[str, str]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": str(nproc),
        "platform": platform.platform(),
        "commit": commit,
    }


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    if seed != inputs.DEFAULT_SEED:
        return None
    return json.loads(PINNED.read_text())[workload]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (plus diagnostics)."""
    cli = load_cli()
    workload = WORKLOADS[workload_name]()
    work = OUT_DIR / f"work-{workload_name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workload.ops(work, seed)
        verifier = Verifier(cli, workload, work, load_pins(workload_name, seed))
        info = {}
        if trace:
            tr = tracer.Tracer()
            tally, untraced, traced = measure_traced(cli, ops[:TRACED_INPUTS], verifier, seconds, tr)
            metrics = tr.metrics(traced, untraced)
            spans = OUT_DIR / f"spans-{workload_name}.tsv"
            tr.write_spans(spans)
            info["spans"] = os.path.relpath(spans, ROOT)
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        else:
            tally, times, refs, passed, setups = measure(cli, ops, verifier, seconds, SETUP_RUNS)
            metrics, q = end_to_end_metrics(tally, times, refs, passed, statistics.median(setups))
            wall_q, wall_tail = tail_percentile(times)
            info["op_tail_ref"] = f"p{q} of {len(times)} ops"
            info["reference"] = f"median {statistics.median(refs):.4f} s per run"
            info["wall"] = (
                f"op p50 {statistics.median(times):.4f} s, op p{wall_q} {wall_tail:.4f} s, "
                f"{passed / sum(times):.4f} ops/s"
            )
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": verifier.failures,
        "info": info,
        "digests": verifier.digests,
    }


def write_pins() -> None:
    """Record each input's output digest for the default seed."""
    pins = {}
    for name in WORKLOADS:
        cli = load_cli()
        workload = WORKLOADS[name]()
        work = OUT_DIR / f"pin-{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            verifier = Verifier(cli, workload, work, None)
            for op in workload.ops(work, inputs.DEFAULT_SEED):
                if not verifier.verify(op, run_op(cli, op)[1]):
                    raise SystemExit(f"error: {verifier.failures[-1]}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        pins[name] = verifier.digests
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins", action="store_true",
        help=f"record output digests for seed {inputs.DEFAULT_SEED} in {PINNED.name} and exit",
    )
    args = parser.parse_args(argv)
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    load_cli()  # fail before printing anything when the program is missing
    for key, value in environment().items():
        print(f"# {key}: {value}")
    print(f"# workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in res["failures"]:
        print(f"# FAILED {failure}", file=sys.stderr)
    for key, value in res["info"].items():
        print(f"# {key}: {value}")
    for name, metric in res["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"failed_ratio = {res['failed'] / res['attempted']!r} ratio ({res['failed']} of {res['attempted']} ops)")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
