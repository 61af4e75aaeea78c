import importlib.util
from collections import defaultdict
from pathlib import Path

import pytest

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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_fixed_numbers():
    # inclusive quartiles of 1..5 are 2, 3, 4, so the parent spreads by
    # (4 - 2) / 3 of its median, more than the change's move of the median;
    # the change wins the pairs it is better in, in the metric's direction,
    # and a tie counts for neither
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 2.0, 3.0, 5.0]
    lower = _bench_pairs().summary(parent, change, "lower")
    assert lower == {
        "parent": parent, "change": change,
        "median_parent": 3.0, "quartiles_parent": [2.0, 3.0, 4.0],
        "median_change": 2.5, "quartiles_change": [2.0, 2.5, 3.0],
        "delta_median": -1 / 6, "spread_parent": 2 / 3, "change_wins": 3,
    }
    assert _bench_pairs().summary(parent, change, "higher")["change_wins"] == 1
    zero = _bench_pairs().summary([0, 0, 1], [1, 1, 1], "higher")
    assert zero["delta_median"] is None and zero["spread_parent"] is None


def test_bench_pairs_lists_the_traced_counts_that_differ():
    # times, and the tracer's own overhead ratio, differ on every run and
    # are not listed; counts, bits and ratios are listed where they differ
    parent = {"a.mul_calls": {"value": 10, "unit": "count"},
              "a.mul_s": {"value": 0.5, "unit": "s"},
              "a.bits": {"value": 7, "unit": "bit"},
              "a.ratio": {"value": 0.5, "unit": "ratio"},
              "trace.overhead_ratio": {"value": 2.1, "unit": "ratio"}}
    change = {"a.mul_calls": {"value": 8, "unit": "count"},
              "a.mul_s": {"value": 0.4, "unit": "s"},
              "a.bits": {"value": 7, "unit": "bit"},
              "a.ratio": {"value": 0.25, "unit": "ratio"},
              "trace.overhead_ratio": {"value": 1.9, "unit": "ratio"}}
    assert _bench_pairs().traced_differences(parent, change) == {
        "a.mul_calls": {"parent": 10, "change": 8},
        "a.ratio": {"parent": 0.5, "change": 0.25}}


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_bench_pairs_refuses_fewer_than_two_pairs_before_any_run(monkeypatch, capsys, pairs):
    # the quartiles of each side need two runs: fewer pairs are a usage
    # error, raised when the arguments are parsed
    module = _bench_pairs()

    def run_once(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(module, "run_once", run_once)
    with pytest.raises(SystemExit) as exit_info:
        module.main([str(ROOT), str(ROOT), "--pairs", pairs])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_memo_traffic_counts_the_link_program_layers():
    # the class sweeps and the slot maps by colour live in the link programs,
    # outside the category memo; both get a row, and the class's own slot
    # descriptors are back after the pass
    spec = importlib.util.spec_from_file_location("memo_traffic",
                                                  ROOT / "tools" / "memo_traffic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from statesum3d import cli, graphcalc
    slots = {attr: vars(graphcalc._LinkProgram)[attr] for attr in ("sweeps", "slots")}
    counts = defaultdict(lambda: [0, 0, 0])
    with module.counting(counts):
        assert cli.run(["invariant", "--triangulation", "s3_2tet", "--category", "fibonacci"]) == 0
    assert {attr: vars(graphcalc._LinkProgram)[attr] for attr in slots} == slots
    for row in ("_LinkProgram.sweeps", "_LinkProgram.slots maps", "_memo['link code']",
                "_memo['slot'] by word", "_memo['slot'] paired"):
        lookups, hits, stores = counts[row]
        assert 0 < lookups and hits <= lookups and stores == lookups - hits, (row, counts[row])
    assert "_memo['slot']" not in counts
    assert module.memo_layer(("slot", (1, 1, 1), 2, False)) == "_memo['slot'] by word"
    assert module.memo_layer(("slot", ((1, 1), (1, -1)), 0, True)) == "_memo['slot'] paired"
