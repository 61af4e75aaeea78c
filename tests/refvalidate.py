"""Reference for ``statesum3d.catdata.validate_category``: the original
F-table domain, block-invertibility and pentagon checks, which loop over
every index tuple and let ``f_entry`` filter out the inadmissible ones.
The tests check that the validator, which walks only admissible fusion
paths, reports exactly what these loops report.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

from itertools import product

from statesum3d.catdata import GFusionData, ValidationReport, validate_category
from statesum3d.linalg import matrix_inverse


def table_domain(data: GFusionData):
    """``(missing, extra)`` keys of the stored F-table against the
    admissible blocks with no unit among (a, b, c)."""
    n, unit = data.n, data.unit
    expected = set()
    for a, b, c in product(range(n), repeat=3):
        if unit in (a, b, c):
            continue
        for e in data.fuse(a, b):
            for f in data.fuse(b, c):
                for d in range(n):
                    if data.nmat(e, c, d) and data.nmat(a, f, d):
                        expected.add((a, b, c, d, e, f))
    return expected - set(data.fsym), set(data.fsym) - expected


def bad_blocks(data: GFusionData) -> list:
    """The non-empty F-blocks (a, b, c, d) that are not square or not
    invertible, in index order."""
    n = data.n
    bad = []
    for a, b, c in product(range(n), repeat=3):
        for d in range(n):
            es, fs, rows = data.f_block(a, b, c, d)
            if not es:
                continue
            if len(es) != len(fs):
                bad.append((a, b, c, d))
                continue
            try:
                matrix_inverse(rows, data.field)
            except ValueError:
                bad.append((a, b, c, d))
    return bad


def pentagon_witness(data: GFusionData):
    """The first index tuple ``(a,b,c,d,u,e,f,g,k)`` at which the pentagon
    fails, in the loop order (a,b,c,d,u,e,k,f,g), or None."""
    n = data.n
    for a, b, c, d in product(range(n), repeat=4):
        for u in range(n):
            for e in data.fuse(a, b):
                for k in range(n):
                    for f in range(n):
                        for gg in data.fuse(c, d):
                            rhs1 = data.f_entry(a, b, gg, u, e, k)
                            rhs2 = data.f_entry(e, c, d, u, f, gg)
                            rhs = rhs1 * rhs2 if rhs1 is not None and rhs2 is not None else None
                            tot = data.field.zero()
                            seen = False
                            for h in range(n):
                                t1 = data.f_entry(b, c, d, k, h, gg)
                                t2 = data.f_entry(a, h, d, u, f, k)
                                t3 = data.f_entry(a, b, c, f, e, h)
                                if t1 is not None and t2 is not None and t3 is not None:
                                    tot = tot + t1 * t2 * t3
                                    seen = True
                            if rhs is None and not seen:
                                continue
                            if rhs is None:
                                rhs = data.field.zero()
                            if tot != rhs:
                                return (a, b, c, d, u, e, f, gg, k)
    return None


def report_lines(data: GFusionData) -> list:
    """``validate_category(data).lines()`` as the exhaustive loops give it:
    the checks before the F-table domain and after the pentagon are taken
    from the validator, the three between are recomputed here, and the
    report ends where a missing F-symbol or a bad block ends it."""
    entries = validate_category(data).entries
    checks = [check for check, _, _ in entries]
    rep = ValidationReport()
    rep.entries = entries[:checks.index("F-table domain")]
    missing, extra = table_domain(data)
    rep.add("F-table domain", not missing and not extra,
            f"missing {sorted(missing)[:2]} extra {sorted(extra)[:2]}"
            if missing or extra else "")
    if missing:
        return rep.lines()
    bad = bad_blocks(data)
    rep.add("F-blocks invertible", not bad, f"blocks {bad[:3]}" if bad else "")
    if bad:
        return rep.lines()
    witness = pentagon_witness(data)
    rep.add("pentagon", witness is None,
            f"violated at (a,b,c,d,u,e,f,g,k) = {witness}" if witness else "")
    if "pentagon" in checks:
        rep.entries += entries[checks.index("pentagon") + 1:]
    return rep.lines()
