import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SAMPLE = '''"""Module docstring,
on two lines."""

# a comment
X = (1,
     2)


def f():
    """Function docstring."""
    return X  # a trailing comment
'''


def test_counts_skips_docstrings_comments_and_blank_lines(tmp_path):
    # 11 physical lines; code lines are the two of X, the def and the return
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE)
    assert _src_lines().counts(path) == (11, 4)


def test_main_prints_each_file_before_the_totals(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_SAMPLE)
    (tmp_path / "b.py").write_text("Y = 1\n\n")
    assert _src_lines().main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "b.py: 2 physical, 1 code",
        "pkg/a.py: 11 physical, 4 code",
        "src physical lines: 13",
        "src code lines: 5",
    ]
