import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trellislab.galois import FieldSpec, Subspace
from trellislab.trellis import Trellis, dualize, realized_code, time_reversed
from trellislab import render, specfile
from trellislab.corpus import default_corpus_dir
from trellislab.cli import main
from conftest import make_random_set, trellises


def test_round_trip_corpus_files():
    directory = default_corpus_dir()
    for path in sorted(directory.glob("*.trellis")):
        text = path.read_text()
        t = specfile.parse(text)
        assert specfile.serialize(t) == text


def test_round_trip_random():
    for t in make_random_set(40, seed=99):
        assert specfile.parse(specfile.serialize(t)) == t


@settings(max_examples=200, deadline=None)
@given(trellises())
def test_round_trip_any_trellis(t):
    assert specfile.parse(specfile.serialize(t)) == t
    # the same rows read over GF(11), where blocks are comma-separated
    field = FieldSpec(11)
    constraints = tuple(Subspace.span(field, c.ambient_dim, c.basis.entries) for c in t.constraints)
    wide = Trellis(field, t.m, t.symbol_dims, t.state_dims, constraints)
    assert specfile.parse(specfile.serialize(wide)) == wide


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


PRODUCT_FORM = "field 2\nlength 3\nsymbol-dims 1 1 1\n\ngenerators\n101 @ 0+3\n110 @ 1+3\n"
SPEC_TEXTS = [p.read_text() for p in sorted(default_corpus_dir().glob("*.trellis"))] + [PRODUCT_FORM]
SPEC_CHARS = st.one_of(st.sampled_from("0123456789 \n|,@+-#"), st.characters())


def _parses_or_spec_error(text: str) -> None:
    try:
        assert isinstance(specfile.parse(text), Trellis)
    except specfile.SpecFileError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(SPEC_CHARS))
def test_parse_any_text_gives_a_trellis_or_a_spec_error(text):
    _parses_or_spec_error(text)


@settings(max_examples=500, deadline=None)
@given(
    st.sampled_from(SPEC_TEXTS),
    st.lists(st.tuples(st.sampled_from("idr"), st.floats(0, 1, exclude_max=True), SPEC_CHARS), min_size=1, max_size=8),
)
def test_parse_mutated_spec_files_gives_a_trellis_or_a_spec_error(text, edits):
    """Insert, delete or replace characters of a corpus file or of a
    product-form file at drawn relative positions."""
    chars = list(text)
    for op, where, ch in edits:
        k = int(where * (len(chars) + (op == "i")))
        if op == "i":
            chars.insert(k, ch)
        elif chars:
            chars[k:k + 1] = [] if op == "d" else [ch]
    _parses_or_spec_error("".join(chars))


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


def _cli_env() -> dict[str, str]:
    """The environment with this checkout's package on the import path, which
    pytest's own `pythonpath` setting does not pass to a subprocess."""
    return {**os.environ, "PYTHONPATH": str(Path(specfile.__file__).resolve().parents[1])}


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "trellislab.cli", *args],
        capture_output=True,
        text=True,
        env=_cli_env(),
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


def test_long_field_modulus_fails_closed_fast(tmp_path):
    # (10^8+7)(10^8+37): rejected by size before any trial division
    path = tmp_path / "long.trellis"
    path.write_text("field 10000004400000259\nlength 1\nsymbol-dims 1\nstate-dims 0\n\nconstraint 0\n")
    start = time.perf_counter()
    result = _run_cli("analyze", str(path))
    assert time.perf_counter() - start < 2
    assert result.returncode == 1
    assert result.stderr == f"error: {path}: field modulus too large, got 10000004400000259\n"
    # the largest prime below the bound still parses
    t = specfile.parse("field 2147483647\nlength 1\nsymbol-dims 1\nstate-dims 0\n\nconstraint 0\n|5|\n")
    assert t.field.p == 2**31 - 1


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


# sha256 prefixes of to_dot(t), serialize(time_reversed(t)), to_dot(dualize(t))
# and serialize(time_reversed(dualize(t))) for every corpus entry, as written
# when each function still sliced constraint rows by hand: reading rows
# through `Trellis.split` must leave every byte of both outputs in place.
RENDER_AND_REVERSAL_PINS = {
    "fig10a": ("0fd7b29c9dcc9514", "a63e74b95f1f5132", "bd79c323ea97d7fa", "6accd48be34c4b76"),
    "fig10b": ("bd79c323ea97d7fa", "6accd48be34c4b76", "0fd7b29c9dcc9514", "a63e74b95f1f5132"),
    "fig12a": ("e4b648a57b974c81", "13a0b66e18d642c8", "373f5e1021790402", "4921a20c1282d5cc"),
    "fig12b": ("373f5e1021790402", "4921a20c1282d5cc", "e4b648a57b974c81", "13a0b66e18d642c8"),
    "fig14a": ("9a4138baa0c2c30f", "d6d911fd12df6915", "6ed2ea970fada36e", "8c9ab6b90c6403e3"),
    "fig14b": ("50ec41907b07f918", "a3441438cdcf1311", "b08db98b954362b6", "b5b6a9c8ee47d745"),
    "fig1a": ("cdbbd9873e369aa5", "46155ed6b19805ad", "13221a4dd2a0938c", "8e4f2183bf0806a2"),
    "fig1b": ("13221a4dd2a0938c", "8e4f2183bf0806a2", "cdbbd9873e369aa5", "46155ed6b19805ad"),
    "fig2a": ("3407fa8c037a68cf", "0b065eeda62ce78f", "ff591ef0218249d3", "fd6f5a2d2ba09f93"),
    "fig2b": ("ff591ef0218249d3", "fd6f5a2d2ba09f93", "3407fa8c037a68cf", "0b065eeda62ce78f"),
    "fig3a": ("7bd0a156a03ecad0", "bb6478d2b99757b1", "b3c07dfba95ba34a", "9539c8eea5e1054b"),
    "fig3b": ("b3c07dfba95ba34a", "9539c8eea5e1054b", "7bd0a156a03ecad0", "bb6478d2b99757b1"),
    "fig4a": ("bdde6d8c7f99395d", "f15060ada5b584a3", "60c3cca0e70e369b", "cd5a5e3870e4acb3"),
    "fig4b": ("60c3cca0e70e369b", "cd5a5e3870e4acb3", "bdde6d8c7f99395d", "f15060ada5b584a3"),
    "fig5a": ("7ccd22ad0c5d3497", "c7af1d692e8f16fb", "9e90ab4251005fa3", "0a973810a51645ad"),
    "fig5b": ("9e90ab4251005fa3", "0a973810a51645ad", "7ccd22ad0c5d3497", "c7af1d692e8f16fb"),
    "fig6": ("4f0648531dd9881a", "141f4335975fa1dc", "816de003da4da9cd", "8a86d9191105fc91"),
    "fig7": ("1e3e9b55a81d5717", "edd12128cadc7304", "7a55404745f97713", "26594a8441c2c9b5"),
    "fig8": ("ffa8b657dc8a5033", "d75a3a18b5ffc3e8", "f584afdd5073869f", "c86fa56715033c6f"),
    "fig9": ("916377e1fadcf6b9", "8d79d9863062efd0", "5ebb4b98ec185a51", "69f0481511e715b6"),
    "sec8-chain-example": ("0c06c86d1c4df096", "bbe267cefe0c5b95", "3ddf9abcf16cbe44", "8cb6a9a2129d7812"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_render_and_time_reversal_pinned_on_corpus(figures):
    assert sorted(figures) == sorted(RENDER_AND_REVERSAL_PINS)
    for name, t in figures.items():
        got = tuple(
            digest
            for side in (t, dualize(t))
            for digest in (_sha(render.to_dot(side)), _sha(specfile.serialize(time_reversed(side))))
        )
        assert got == RENDER_AND_REVERSAL_PINS[name], name


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


def test_cli_two_reduction_off_trim_input_is_inapplicable(tmp_path):
    # fig14a is not branch-trim, so the composite need not be strict
    result = _run_cli("reduce", corpus_file("fig14a"), str(tmp_path / "out.trellis"), "--method", "two-reduction")
    assert result.returncode == 2
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout.startswith("no applicable method: ")
    assert not (tmp_path / "out.trellis").exists()


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
        env=_cli_env(),
    )
    assert result.returncode == 0
    assert "verify-corpus" in result.stdout
