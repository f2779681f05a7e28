import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from trellislab.galois import FieldSpec, Subspace
from trellislab.trellis import Trellis, realized_code
from trellislab import render, specfile
from trellislab.corpus import default_corpus_dir
from trellislab.cli import main
from conftest import make_random_set


def test_round_trip_corpus_files():
    directory = default_corpus_dir()
    for path in sorted(directory.glob("*.trellis")):
        text = path.read_text()
        t = specfile.parse(text)
        assert specfile.serialize(t) == text


def test_round_trip_random():
    for t in make_random_set(40, seed=99):
        assert specfile.parse(specfile.serialize(t)) == t


def test_round_trip_large_prime():
    field = FieldSpec(11)
    c = Subspace.span(field, 5, [[1, 0, 10, 3, 7], [0, 1, 2, 0, 4]])
    t = Trellis(field, 1, (1,), (2,), (c,))
    text = specfile.serialize(t)
    assert "," in text
    assert specfile.parse(text) == t


def test_parse_product_form(figures):
    text = """
field 2
length 3
symbol-dims 1 1 1

generators
101 @ 0+3
110 @ 1+3
"""
    assert specfile.parse(text) == figures["fig1a"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(specfile.SpecFileError) as err:
        specfile.parse("field 2\nlength 1\nsymbol-dims 1\nstate-dims 0\n\nconstraint 0\n1|2|1\n")
    assert "line 7" in str(err.value)
    with pytest.raises(specfile.SpecFileError):
        specfile.parse("field 4\nlength 1\nsymbol-dims 1\nstate-dims 0\nconstraint 0\n")
    mixed = """
field 2
length 1
symbol-dims 1
state-dims 0

constraint 0
|1|

generators
1 @ 0+1
"""
    with pytest.raises(specfile.SpecFileError) as err:
        specfile.parse(mixed)
    assert "mix" in str(err.value)
    with pytest.raises(specfile.SpecFileError) as err:
        specfile.parse("field 2\nwidgets 3\nlength 1\nsymbol-dims 1\nstate-dims 0\nconstraint 0\n")
    assert "unknown header" in str(err.value)
    dup = "field 2\nlength 2\nsymbol-dims 1 1\nstate-dims 0 0\nconstraint 0\nconstraint 0\n"
    with pytest.raises(specfile.SpecFileError) as err:
        specfile.parse(dup)
    assert "duplicate" in str(err.value)
    with pytest.raises(specfile.SpecFileError):
        specfile.parse("field 2\nlength 2\nsymbol-dims 1 1\nstate-dims 0 0\nconstraint 0\n")


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    src = Path(specfile.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "trellislab.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_negative_dims_fail_closed(tmp_path):
    text = "field 2\nlength 2\nsymbol-dims {}\nstate-dims {}\n\nconstraint 0\n\nconstraint 1\n"
    for adims, sdims, where in (("-1 1", "0 0", "line 3: symbol-dims"), ("1 1", "0 -1", "line 4: state-dims")):
        with pytest.raises(specfile.SpecFileError) as err:
            specfile.parse(text.format(adims, sdims))
        assert str(err.value) == f"{where} must not be negative"
    path = tmp_path / "negative.trellis"
    path.write_text(text.format("-1 1", "0 0"))
    result = _run_cli("analyze", str(path))
    assert result.returncode == 1
    assert result.stderr == f"error: {path}: line 3: symbol-dims must not be negative\n"


def test_unreadable_input_fails_closed(tmp_path):
    # a directory, and a file that is not UTF-8 text: an error line, no traceback
    binary = tmp_path / "binary.trellis"
    binary.write_bytes(b"field 2\n\xff\xfe\n")
    for path, reason in ((tmp_path, "Is a directory"), (binary, "can't decode byte 0xff")):
        result = _run_cli("analyze", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {path}: ")
        assert reason in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "command",
    ["dual", "render", "reduce", "reduce --log", "reduce zero-run", "analyze --report"],
)
def test_unwritable_output_fails_closed(tmp_path, command):
    # an output path that cannot be written: an error line, no traceback
    missing = tmp_path / "missing" / "out.trellis"
    out, bad, reason = tmp_path / "out.trellis", missing, "No such file or directory"
    argv = {
        "dual": ["dual", corpus_file("fig1a"), str(missing)],
        "render": ["render", corpus_file("fig1a"), str(missing)],
        "reduce": ["reduce", corpus_file("fig3a"), str(missing)],
        "reduce --log": ["reduce", corpus_file("fig3a"), str(out), "--log", str(missing)],
        "reduce zero-run": ["reduce", corpus_file("fig7"), str(out), "--method", "zero-run", "0:6"],
        "analyze --report": ["analyze", corpus_file("fig1a"), "--report", str(missing)],
    }[command]
    if command == "reduce zero-run":
        bad, reason = tmp_path / "out-conservative.trellis", "Is a directory"
        bad.mkdir()
    result = _run_cli(*argv)
    assert result.returncode == 1
    assert result.stderr == f"error: {bad}: {reason}\n"


def test_verify_corpus_bad_directory_fails_closed(tmp_path):
    missing = tmp_path / "missing"
    result = _run_cli("verify-corpus", "--corpus-dir", str(missing))
    assert result.returncode == 1
    assert result.stderr == f"error: {missing / 'manifests.json'}: No such file or directory\n"
    (tmp_path / "manifests.json").write_text("not json\n")
    result = _run_cli("verify-corpus", "--corpus-dir", str(tmp_path))
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: {tmp_path / 'manifests.json'}: Expecting value")
    assert "Traceback" not in result.stderr
    (tmp_path / "manifests.json").write_text("[1]\n")
    result = _run_cli("verify-corpus", "--corpus-dir", str(tmp_path))
    assert result.returncode == 1
    assert result.stderr == (
        f"error: {tmp_path / 'manifests.json'}: "
        "expected a list of entries with an id, a file and a list of checks\n"
    )
    corpus_copy = tmp_path / "corpus"
    shutil.copytree(default_corpus_dir(), corpus_copy)
    (corpus_copy / "fig1a.trellis").write_text("garbage\n")
    result = _run_cli("verify-corpus", "--corpus-dir", str(corpus_copy))
    assert result.returncode == 1
    assert result.stderr == f"error: {corpus_copy / 'fig1a.trellis'}: line 1: unknown header line 'garbage'\n"


def test_render_deterministic_and_styled(figures):
    t = figures["fig1a"]
    dot = render.to_dot(t)
    assert dot == render.to_dot(t)
    assert dot.count("rank=same") == 4  # time 0 appears at both ends
    assert "style=dashed" in dot and "style=solid" in dot
    zero = specfile.parse(
        "field 2\nlength 2\nsymbol-dims 1 1\nstate-dims 0 0\n\nconstraint 0\n\nconstraint 1\n"
    )
    zdot = render.to_dot(zero)
    assert zdot.count('label="-"') == 3


def test_render_node_names_distinct_above_gf7():
    field = FieldSpec(11)
    t = Trellis(field, 1, (1,), (3,), (Subspace.zero(field, 7),))
    names = re.findall(r'^  "([^"]+)" \[label=', render.to_dot(t), re.M)
    assert len(names) == 2 * 11 ** 3  # time 0 appears at both ends
    assert len(set(names)) == len(names)


def test_render_expanded_intermediate(figures):
    dot = render.to_dot(figures["fig8"])
    # the adjoined all-zero run shows up as dashed edges
    assert "style=dashed" in dot


# --- CLI ----------------------------------------------------------------------

def corpus_file(name: str) -> str:
    return str(default_corpus_dir() / f"{name}.trellis")


def test_cli_analyze_text_and_json(capsys):
    assert main(["analyze", corpus_file("fig1b")]) == 0
    out = capsys.readouterr().out
    assert "not state-trim at time 2" in out
    assert main(["analyze", corpus_file("fig3b"), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["branch_trim_at"] == [True, True, True, True, False]
    assert main(
        ["analyze", corpus_file("fig7"), "--fragment", "0:6", "--t-profile"]
    ) == 0
    out = capsys.readouterr().out
    assert "fragment [0,+6)" in out and "observable=False" in out


def test_cli_analyze_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["analyze", corpus_file("fig1b"), "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["state_trim_at"] == [True, True, False]


def test_cli_dual_round_trip(tmp_path, capsys, figures):
    out = tmp_path / "dual.trellis"
    assert main(["dual", corpus_file("fig1a"), str(out)]) == 0
    capsys.readouterr()
    parsed = specfile.parse(out.read_text())
    assert parsed == figures["fig1b"]


def test_cli_reduce_auto(tmp_path, capsys, figures):
    out = tmp_path / "reduced.trellis"
    assert main(["reduce", corpus_file("fig3a"), str(out), "--method", "auto"]) == 0
    capsys.readouterr()
    final = specfile.parse(out.read_text())
    assert realized_code(final) == realized_code(figures["fig3a"])
    log = Path(str(out) + ".steps.jsonl").read_text().splitlines()
    assert all(json.loads(line)["kind"] for line in log)
    # replaying the log reproduces the output file exactly
    from trellislab.reduction import replay

    replayed = replay(figures["fig3a"], [json.loads(line) for line in log])
    assert specfile.serialize(replayed) == out.read_text()


def test_cli_reduce_no_method_exit_code(tmp_path, capsys):
    out = tmp_path / "x.trellis"
    assert main(["reduce", corpus_file("fig10a"), str(out), "--method", "auto"]) == 2
    assert "no applicable method" in capsys.readouterr().out
    assert main(["reduce", corpus_file("fig1a"), str(out), "--method", "unobs-trim"]) == 2


def test_cli_reduce_zero_run(tmp_path, capsys, figures):
    out = tmp_path / "nine.trellis"
    code = main(
        ["reduce", corpus_file("fig7"), str(out), "--method", "zero-run", "0:6"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "strict conservative" in text
    final = specfile.parse(out.read_text())
    assert final.state_dims == (3, 3, 3, 2, 1, 1, 1, 2, 2)
    conservative = tmp_path / "nine-conservative.trellis"
    assert specfile.parse(conservative.read_text()).state_dims == figures["fig7"].state_dims


def test_cli_render(tmp_path, capsys):
    out = tmp_path / "a.dot"
    assert main(["render", corpus_file("fig1a"), str(out)]) == 0
    assert out.read_text().startswith("digraph trellis {")


def test_cli_verify_corpus(capsys):
    assert main(["verify-corpus", "--only", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "failed" in out
    assert main(["verify-corpus", "--only", "fig1a", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["id"] == "fig1a" and payload[0]["failed"] == []


def test_cli_reduce_two_reduction(tmp_path, capsys, figures):
    out = tmp_path / "two.trellis"
    assert main(
        ["reduce", corpus_file("fig3a"), str(out), "--method", "two-reduction"]
    ) == 0
    capsys.readouterr()
    final = specfile.parse(out.read_text())
    assert sum(final.state_dims) == sum(figures["fig3a"].state_dims) - 1
    # inapplicable: already (m-1)-observable
    assert main(
        ["reduce", corpus_file("fig10a"), str(out), "--method", "two-reduction"]
    ) == 2


def test_cli_verify_corpus_detects_corruption(tmp_path, capsys, monkeypatch):
    src = default_corpus_dir()
    dst = tmp_path / "corpus"
    shutil.copytree(src, dst)
    path = dst / "fig1a.trellis"
    text = path.read_text()
    # flip the symbol digit of one constraint row
    corrupted = text.replace("1|0|1\n0|1|1", "1|0|1\n0|0|1", 1)
    assert corrupted != text
    path.write_text(corrupted)
    code = main(
        ["verify-corpus", "--only", "fig1a", "--corpus-dir", str(dst)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "mismatch" in out
    # the environment override points at the same corrupted copy
    monkeypatch.setenv("TRELLIS_LAB_CORPUS_DIR", str(dst))
    assert default_corpus_dir() == dst
    assert main(["verify-corpus", "--only", "fig1a"]) == 1
    capsys.readouterr()


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "trellislab.cli", "--help"]
        if shutil.which("trellis-lab") is None
        else ["trellis-lab", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "verify-corpus" in result.stdout
