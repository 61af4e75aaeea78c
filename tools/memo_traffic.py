"""Print the lookups, hits and stores of every cache layer over one pass of
a benchmark workload's command list.

    python3 tools/memo_traffic.py --workload NAME --seed N

Run from anywhere; the package is imported from this checkout's ``src/``
and the command lists from ``perfbench/inputs.py``, which is only read.
The layers are the category's ``_memo``, one per key kind (the key's first
entry), but for the slot maps, which take two rows: the re-basings keyed
by their word (``_memo['slot'] by word``), which the darts ``(c, +1)`` and
``(c*, -1)`` share, and the paired maps keyed by their signed colours
(``_memo['slot'] paired``); its F-symbol memo ``_f_memo`` (``f_entry`` by
6-tuple), its ``_finv_cache``, the state-sum evaluator's ``link_cache`` and
``admissible_cache``, and two of each link program
(``graphcalc._LinkProgram``): its class sweeps by class colours
(``sweeps``, one dict per canonical code, which the programs of that code
share), and its slots' maps by their darts' colours (the dict in each
tuple of ``slots``).  Counting dicts are installed from outside the
package, as ``perfbench/tracer.py`` wraps functions: a class attribute of
``GFusionData``, ``_Evaluator`` and ``_LinkProgram`` wraps the dicts of
each of these attributes when the constructor assigns it, and is removed
again after the pass; a ``__slots__`` attribute is stored through the
class's own slot descriptor.

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
import types
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
    """Data descriptor that stores each value assigned to the attribute as
    ``wrap(value)``: in the instance's own ``__dict__``, or through
    ``slot``, the class's own descriptor of a ``__slots__`` attribute."""

    def __init__(self, name, wrap, slot=None):
        self.name, self.wrap, self.slot = name, wrap, slot

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self.slot.__get__(obj, owner) if self.slot else obj.__dict__[self.name]

    def __set__(self, obj, value):
        if self.slot:
            self.slot.__set__(obj, self.wrap(value))
        else:
            obj.__dict__[self.name] = self.wrap(value)


def counting_dict(counts, kind):
    """A wrap for :class:`Counted`: each dict becomes a new
    :class:`CountingDict`."""
    return lambda value: CountingDict(value, counts, kind)


def shared_counting_dict(counts, kind):
    """A wrap for :class:`Counted`: each dict becomes a :class:`CountingDict`,
    the same one each time the same dict is assigned, so that instances
    sharing a dict share its counting copy (the original is kept, unused,
    so that its id is not reused)."""
    copies = {}

    def wrap(value):
        entry = copies.get(id(value))
        if entry is None:
            entry = copies[id(value)] = (value, CountingDict(value, counts, kind))
        return entry[1]
    return wrap


def counting_slot_dicts(counts, kind):
    """A wrap for :class:`Counted`: a tuple of tuples with the dicts in
    them turned into new :class:`CountingDict` s."""
    return lambda value: tuple([tuple([CountingDict(x, counts, kind) if isinstance(x, dict)
                                       else x for x in slot]) for slot in value])


def memo_layer(key) -> str:
    """The row of a category ``_memo`` key: its kind, and for a slot map
    whether it is a re-basing keyed by its word or a paired map."""
    if key[0] == "slot":
        return "_memo['slot'] paired" if key[3] else "_memo['slot'] by word"
    return f"_memo[{key[0]!r}]"


@contextlib.contextmanager
def counting(counts):
    from statesum3d import catdata, graphcalc, statesum
    layers = [(catdata.GFusionData, "_memo", counting_dict(counts, memo_layer)),
              (catdata.GFusionData, "_f_memo", counting_dict(counts, lambda key: "_f_memo")),
              (catdata.GFusionData, "_finv_cache",
               counting_dict(counts, lambda key: "_finv_cache")),
              (statesum._Evaluator, "link_cache",
               counting_dict(counts, lambda key: "_Evaluator.link_cache")),
              (statesum._Evaluator, "admissible_cache",
               counting_dict(counts, lambda key: "_Evaluator.admissible_cache")),
              (graphcalc._LinkProgram, "sweeps",
               shared_counting_dict(counts, lambda key: "_LinkProgram.sweeps")),
              (graphcalc._LinkProgram, "slots",
               counting_slot_dicts(counts, lambda key: "_LinkProgram.slots maps"))]
    installed = []
    try:
        for owner, attr, wrap in layers:
            slot = vars(owner).get(attr)
            if attr in vars(owner) and not isinstance(slot, types.MemberDescriptorType):
                raise RuntimeError(f"{owner.__name__}.{attr} is already a class attribute")
            setattr(owner, attr, Counted(attr, wrap, slot))
            installed.append((owner, attr, slot))
        yield
    finally:
        for owner, attr, slot in installed:
            if slot is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, slot)


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
