"""Print the lookups, hits and stores of every cache layer over one pass of
a benchmark workload's command list.

    python3 tools/memo_traffic.py --workload NAME --seed N

Run from anywhere; the package is imported from this checkout's ``src/``
and the command lists from ``perfbench/inputs.py``, which is only read.
The layers are the category's ``_memo``, one per key kind (the key's first
entry), its F-symbol memo ``_f_memo`` (``f_entry`` by 6-tuple), its
``_finv_cache``, and the state-sum evaluator's ``link_cache`` and
``admissible_cache``.  Counting dicts are installed from outside the
package, as ``perfbench/tracer.py`` wraps functions: a class attribute of
``GFusionData`` and ``_Evaluator`` wraps each of these dicts when the
constructor assigns it, and is removed again after the pass.

A lookup is a ``get`` or an ``in`` test, and it hits when the key is
there; a store is an item assignment.  Reading an item right after an
``in`` test or a store is not counted again.  The exit code is 1 when a
command exits non-zero, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class CountingDict(dict):
    """A dict that adds its lookups, hits and stores to ``counts``, keyed
    by ``kind(key)``."""

    def __init__(self, items, counts, kind):
        super().__init__(items)
        self._counts, self._kind = counts, kind

    def _lookup(self, key) -> bool:
        hit = dict.__contains__(self, key)
        row = self._counts[self._kind(key)]
        row[0] += 1
        row[1] += hit
        return hit

    def get(self, key, default=None):
        return dict.get(self, key, default) if self._lookup(key) else default

    def __contains__(self, key):
        return self._lookup(key)

    def __setitem__(self, key, value):
        self._counts[self._kind(key)][2] += 1
        dict.__setitem__(self, key, value)


class Counted:
    """Data descriptor that turns each dict assigned to the attribute into
    a :class:`CountingDict` in the instance's own ``__dict__``."""

    def __init__(self, name, counts, kind):
        self.name, self.counts, self.kind = name, counts, kind

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__[self.name]

    def __set__(self, obj, value):
        obj.__dict__[self.name] = CountingDict(value, self.counts, self.kind)


@contextlib.contextmanager
def counting(counts):
    from statesum3d import catdata, statesum
    layers = [(catdata.GFusionData, "_memo", lambda key: f"_memo[{key[0]!r}]"),
              (catdata.GFusionData, "_f_memo", lambda key: "_f_memo"),
              (catdata.GFusionData, "_finv_cache", lambda key: "_finv_cache"),
              (statesum._Evaluator, "link_cache", lambda key: "_Evaluator.link_cache"),
              (statesum._Evaluator, "admissible_cache",
               lambda key: "_Evaluator.admissible_cache")]
    for owner, attr, kind in layers:
        if attr in vars(owner):
            raise RuntimeError(f"{owner.__name__}.{attr} is already a class attribute")
        setattr(owner, attr, Counted(attr, counts, kind))
    try:
        yield
    finally:
        for owner, attr, _ in layers:
            delattr(owner, attr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from inputs import WORKLOADS, load_expected, make_cases
    from statesum3d import cli
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    counts = defaultdict(lambda: [0, 0, 0])
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        cases = make_cases(args.workload, args.seed, Path(workdir), load_expected())
        with counting(counts):
            for case in cases:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(["--json", *case.argv])
                if code != 0:
                    failed += 1
                    print(f"FAILED (exit {code}): statesum3d {' '.join(case.argv)}",
                          file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}: {len(cases)} commands, {failed} failed")
    width = max(map(len, counts), default=5)
    print(f"{'layer':<{width}}  {'lookups':>9}  {'hits':>9}  {'stores':>9}  hit ratio")
    for layer, (lookups, hits, stores) in sorted(counts.items()):
        ratio = f"{hits / lookups:9.3f}" if lookups else "        -"
        print(f"{layer:<{width}}  {lookups:>9,}  {hits:>9,}  {stores:>9,}  {ratio}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
