"""scripts/trace_diff.py compares trace.csv files; checked on small traces."""

import importlib.util
from pathlib import Path

import pytest

from conftest import BAD_TRACES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trace_diff.py"
HEADER = "t,mode,omega_1,omega_2,c_1,c_2,beta_1\n"
ROWS = ["0,pre-reframe,1,1.02,0,0,10\n",
        "2.5,pre-reframe,1.005,1.015,0.005,-0.005,10.05\n",
        "2.5,post-reframe,1.01,1.01,0.01,-0.01,10.05\n",
        "5,post-reframe,1.01,1.01,0.01,-0.01,10\n"]


@pytest.fixture(scope="module")
def trace_diff():
    spec = importlib.util.spec_from_file_location("trace_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(path: Path, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(HEADER + "".join(rows), encoding="utf-8")
    return path


def test_moved_values_are_reported_and_pass(trace_diff, tmp_path, capsys):
    moved = list(ROWS)
    moved[3] = "5,post-reframe,1.01,1.01,0.01,-0.01,10.000000000000002\n"
    a = _trace(tmp_path / "a.csv", ROWS)
    b = _trace(tmp_path / "b.csv", moved)
    assert trace_diff.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert out == (f"{a} vs {b}: rows match, modes match; largest "
                   "|difference|: t 0, omega 0, c 0, beta 1.78e-15; first "
                   "differing row: 3 (t = 5)\n")
    assert trace_diff.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out.endswith(
        "t 0, omega 0, c 0, beta 0; first differing row: none\n")


def test_a_mode_or_a_row_that_differs_fails(trace_diff, tmp_path, capsys):
    a = _trace(tmp_path / "a.csv", ROWS)
    early = list(ROWS)
    early[1] = early[1].replace("pre-reframe", "post-reframe")
    b = _trace(tmp_path / "b.csv", early)
    assert trace_diff.main([str(a), str(b)]) == 1
    assert "rows match, modes differ;" in capsys.readouterr().out
    c = _trace(tmp_path / "c.csv", ROWS[:3])
    assert trace_diff.main([str(a), str(c)]) == 1
    assert capsys.readouterr().out.endswith(
        "rows 4 vs 3, modes differ; largest |difference|: t 0, omega 0, "
        "c 0, beta 0; first differing row: 3\n")


def test_folders_pair_their_traces_by_relative_path(trace_diff, tmp_path,
                                                    capsys):
    for side in ("a", "b"):
        _trace(tmp_path / side / "e1" / "trace.csv", ROWS)
        (tmp_path / side / "e1" / "summary.json").write_text("{}")
    assert trace_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.startswith(
        f"{Path('e1', 'trace.csv')}: rows match, modes match;")
    _trace(tmp_path / "b" / "ring" / "trace.csv", ROWS)
    assert trace_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        f"{Path('ring', 'trace.csv')}: only in {tmp_path / 'b'}")


@pytest.mark.parametrize("case", BAD_TRACES)
def test_a_malformed_trace_exits_2_naming_the_line(trace_diff, tmp_path,
                                                   capsys, case):
    data, error = BAD_TRACES[case]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    good = _trace(tmp_path / "good.csv", ROWS)
    assert trace_diff.main([str(good), str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}{error}\n"


def test_a_missing_trace_exits_2(trace_diff, tmp_path, capsys):
    good = _trace(tmp_path / "good.csv", ROWS)
    assert trace_diff.main([str(good), str(tmp_path / "missing.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: [Errno 2] No such file or directory:")
