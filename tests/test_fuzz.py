"""Seeded mutation fuzz of the input parsers, through the command line.

Every shipped skeleton, surface and triangulation file, four shipped
category files, the cobordism file of the product cylinder over each
shipped surface, and the theta graph and seeded random sphere graphs
colored by fibonacci, is mutated by line deletions and duplications, token
deletions and small integer edits, and each result is run through
``cli.run``.  The four categories are also run through the state sum
(``invariant`` and ``hqft-rank``), every other mutant with one bracketed
value set to ``[0]``.  Malformed input must end in a documented exit code
(0, 2 validation, 3 domain, 4 I/O) with at most one line on standard
error, never in a traceback or an internal error.
"""

import contextlib
import io
import random
import re

import pytest

from statesum3d.catdata import FiniteGroup, builtin_category
from statesum3d.cli import run
from statesum3d.graphcalc import ColoredGraph, save_graph
from statesum3d.hqft import build_product_cylinder, parse_surface, save_cobordism

from graphutil import random_admissible_graph
from trifiles import DATA

_KINDS = {
    "categories": (["validate-category", "--category"], 80),
    "cobordisms": (["cobordism-map", "--category", "vect_Z2_theta1", "--cobordism"], 100),
    "graphs": (["eval-graph", "--category", "fibonacci", "--graph"], 60),
    "skeletons": (["labelings", "--group", "Z2", "--skeleton"], 300),
    "surfaces": (["hqft-rank", "--category", "vect_Z2_theta1", "--surface"], 80),
    "triangulations": (["labelings", "--group", "Z2", "--triangulation"], 60),
}
# mutants per category run through the state sum
_STATE_SUM_MUTANTS = 24


def _originals(kind):
    """``(name, text)`` of the inputs mutated for ``kind``."""
    if kind == "categories":
        return [(f"{name}.cat", (DATA / "categories" / f"{name}.cat").read_text())
                for name in ("fibonacci", "ising_like", "vect_Z2_theta1", "vect_Z3_theta1")]
    if kind == "cobordisms":
        z2 = FiniteGroup.cyclic(2)
        return [(f"{p.stem}.cob", save_cobordism(build_product_cylinder(parse_surface(p.read_text(), z2))))
                for p in sorted((DATA / "surfaces").iterdir())]
    if kind == "graphs":
        theta = ColoredGraph(2, [(0, 1, 1)] * 3,
                             [[(0, 0), (1, 0), (2, 0)], [(2, 1), (1, 1), (0, 1)]])
        rnd = random.Random("parser-fuzz/graph-originals")
        fibonacci = builtin_category("fibonacci")
        graphs = [theta] + [random_admissible_graph(rnd, fibonacci) for _ in range(3)]
        return [(f"graph{k}.graph", save_graph(g)) for k, g in enumerate(graphs)]
    return [(p.name, p.read_text()) for p in sorted((DATA / kind).iterdir())]


def _mutate(rnd, text):
    lines = text.splitlines()
    k = rnd.randrange(len(lines))
    kind = rnd.choice(["delete line", "duplicate line", "delete token", "edit integer"])
    if kind == "delete line":
        del lines[k]
    elif kind == "duplicate line":
        lines.insert(k, lines[k])
    else:
        toks = lines[k].split()
        if kind == "edit integer":
            spots = [i for i, t in enumerate(toks) if re.fullmatch(r"-?\d+", t)]
            if not spots:
                return None
            i = rnd.choice(spots)
            toks[i] = str(int(toks[i]) + rnd.choice([-1, 1, 2]))
        elif toks:
            del toks[rnd.randrange(len(toks))]
        lines[k] = " ".join(toks)
    return "\n".join(lines) + "\n"


def _zero_bracket(rnd, text):
    """``text`` with one bracketed value, drawn by ``rnd``, set to ``[0]``."""
    spot = rnd.choice(list(re.finditer(r"\[[^]]*\]", text)))
    return text[:spot.start()] + "[0]" + text[spot.end():]


def _check_run(argv, name, mutant):
    """Run ``argv`` on a mutant and check that it ends in a documented exit
    code with at most one line on standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # the mutant goes into the failure message
            raise AssertionError(f"{name} mutant:\n{mutant}") from exc
    assert code in (0, 2, 3, 4), (name, mutant, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (name, mutant, err.getvalue())


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_mutated_inputs_exit_with_a_documented_code(tmp_path, kind):
    argv, per_file = _KINDS[kind]
    originals = _originals(kind)
    rnd = random.Random(f"parser-fuzz/{kind}")
    path = tmp_path / "mutant"
    runs = 0
    for name, text in originals:
        for _ in range(per_file):
            mutant = _mutate(rnd, text)
            if mutant is None:
                continue
            path.write_text(mutant)
            _check_run(argv + [str(path)], name, mutant)
            runs += 1
    assert runs >= len(originals) * per_file // 2


def test_mutated_categories_through_the_state_sum(tmp_path):
    # every other mutant sets one bracketed value (a dimension, a pivotal
    # coefficient, an F-symbol, the minimal polynomial) to [0]
    rnd = random.Random("parser-fuzz/state-sum")
    path = tmp_path / "mutant.cat"
    originals = _originals("categories")
    runs = 0
    for name, text in originals:
        for k in range(_STATE_SUM_MUTANTS):
            mutant = _zero_bracket(rnd, text) if k % 2 else _mutate(rnd, text)
            if mutant is None:
                continue
            path.write_text(mutant)
            for argv in (["invariant", "--triangulation", "s3_2tet"],
                         ["hqft-rank", "--surface", "torus_2loop"]):
                _check_run(argv + ["--category", str(path)], name, mutant)
            runs += 1
    assert runs >= len(originals) * _STATE_SUM_MUTANTS // 2
