"""The acceptance gate: nine executable criteria.

Each criterion is a zero-argument callable returning (passed, detail); the
CLI ``suite`` subcommand and tests/test_acceptance.py both run exactly
these.  Tolerances (time limits, sweep sizes) are stated inline — a
criterion that cannot meet its stated bound reports False rather than
shrinking the bound.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

from . import sat as satmod
from .colorings import (ColoringSpec, Coloring, enumerate_colorings,
                        load_file, make_coloring, save_file)
from .hindman import (SCALED_QUAD, SHIFTED_QUAD, check_fs_witness,
                      find_fs_witness_detailed, find_grid_witness_detailed,
                      find_scaled_quad_detailed, find_shifted_quad_detailed,
                      grid_common_color, load_witness, make_witness,
                      save_witness, verify_witness)
from .patterns import parse_pattern
from .search import (InstanceQuery, find_avoiding_coloring, find_instance,
                     instance_color, threshold_number)
from .semigroups import (algebra_report, find_associativity_violation,
                         iter_tables, table_from_rows)

SCHUR = "{x, y, x+y}"
SUM_PRODUCT_QUAD = "{x, y, x*y, x+y}"
SUM_PRODUCT_TRIPLE = "{x, x*y, x+y}"
DOUBLED_QUAD = "{x, y, x*y, x+2*y}"

# encode_avoidance({x, y, x+y}, N=4, c=2, symmetry_break=False), frozen as
# text: 4 at-least-one / 4 at-most-one clauses, then one clause per
# (value set, color) over the sets {1,2}, {1,2,3}, {1,3,4}, {2,4}.
GOLDEN_DIMACS_N4 = (
    "p cnf 8 16\n"
    "1 2 0\n-1 -2 0\n3 4 0\n-3 -4 0\n5 6 0\n-5 -6 0\n7 8 0\n-7 -8 0\n"
    "-1 -3 0\n-2 -4 0\n-1 -3 -5 0\n-2 -4 -6 0\n-1 -5 -7 0\n-2 -6 -8 0\n"
    "-3 -7 0\n-4 -8 0\n"
)


def criterion_1():
    """{x, y, x+y} with two colors is forced exactly at N = 5 — all three
    engines agree, in under a second, and the N = 4 certificate survives an
    independent instance scan."""
    schema = parse_pattern(SCHUR)
    t0 = time.perf_counter()
    results = {}
    for engine in ("backtracking", "sat", "exhaustive"):
        res = threshold_number(schema, 2, 8, engine=engine)
        if res.status != "found":
            return False, f"engine {engine} did not settle the threshold"
        results[engine] = res
        cert = res.certificate
        if cert is None or cert.N != 4:
            return False, f"engine {engine} returned no N=4 certificate"
        if find_instance(InstanceQuery(schema=schema, coloring=cert)) is not None:
            return False, f"engine {engine} certificate is not avoiding"
    elapsed = time.perf_counter() - t0
    values = {e: r.threshold for e, r in results.items()}
    if set(values.values()) != {5}:
        return False, f"thresholds disagree: {values}"
    if elapsed >= 1.0:
        return False, f"took {elapsed:.2f}s (limit 1s)"
    return True, f"threshold 5 from all engines in {elapsed:.2f}s"


def criterion_2():
    """Three colors push the bound to N = 14 (backtracking and sat agree,
    under 60s), and adding a color never lowers the threshold."""
    schema = parse_pattern(SCHUR)
    t0 = time.perf_counter()
    two = threshold_number(schema, 2, 8).threshold
    vals = {}
    for engine in ("backtracking", "sat"):
        res = threshold_number(schema, 3, 20, engine=engine)
        if res.status != "found":
            return False, f"engine {engine} did not settle c=3"
        vals[engine] = res.threshold
    elapsed = time.perf_counter() - t0
    if set(vals.values()) != {14}:
        return False, f"c=3 thresholds disagree: {vals}"
    if not (two is not None and two <= 14):
        return False, f"monotonicity violated: c=2 gave {two}"
    if elapsed >= 60.0:
        return False, f"took {elapsed:.2f}s (limit 60s)"
    return True, f"c=3 threshold 14 (c=2 gave {two}) in {elapsed:.2f}s"


def criterion_3():
    """Finite sum-product claims at desk scale: 10000 seeded random
    2-colorings of [1..252] (variables from 1) and of [1..990] (variables
    from 2) each contain a monochromatic {x, y, x*y, x+y}, within 5
    minutes."""
    t0 = time.perf_counter()
    sweeps = (
        (parse_pattern(SUM_PRODUCT_QUAD), 252),
        (parse_pattern(SUM_PRODUCT_QUAD, min_value=2), 990),
    )
    for schema, N in sweeps:
        for seed in range(10000):
            col = make_coloring("random", 1, N, 2, seed=seed)
            if find_instance(InstanceQuery(schema=schema, coloring=col)) is None:
                return False, (f"seed {seed} on [{schema.min_value}..{N}] "
                               f"has no monochromatic quadruple")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        return False, f"took {elapsed:.1f}s (limit 300s)"
    return True, f"20000 seeded colorings all forced in {elapsed:.1f}s"


def criterion_4():
    """All engines return the same avoid/force verdict on four pattern
    fixtures for every N <= 12 at two colors."""
    fixtures = [
        parse_pattern(SCHUR),
        parse_pattern(SUM_PRODUCT_QUAD),
        parse_pattern(SUM_PRODUCT_TRIPLE),
        parse_pattern(DOUBLED_QUAD),
    ]
    checked = 0
    for schema in fixtures:
        for N in range(1, 13):
            verdicts = {}
            for engine in ("backtracking", "sat", "exhaustive"):
                res = find_avoiding_coloring(schema, N, 2, engine=engine)
                verdicts[engine] = res.verdict
            if len(set(verdicts.values())) != 1:
                return False, (f"{schema.source} N={N}: engines disagree "
                               f"{verdicts}")
            checked += 1
    return True, f"{checked} (pattern, N) cells agree across three engines"


def criterion_5():
    """Subset-sum witnesses behave like the threshold says they must: every
    one of the 32 two-colorings of [1..5] has a 2-generator witness, the
    avoiding coloring of [1..4] has none, and 1-block grid witnesses exist
    exactly when plain witnesses do (same color both ways) over a mixed
    coloring family on [1..30]."""
    count = 0
    for col in enumerate_colorings(5, 2, symmetry_break=False):
        if find_fs_witness_detailed(col, 2)[0] is None:
            return False, f"coloring {col.cells} of [1..5] has no 2-witness"
        count += 1
    if count != 32:
        return False, f"expected 32 colorings of [1..5], saw {count}"
    blocker = Coloring(d=1, N=4, c=2, cells=(0, 1, 1, 0))
    if find_fs_witness_detailed(blocker, 2)[0] is not None:
        return False, "the avoiding coloring of [1..4] yielded a 2-witness"

    family = [make_coloring("parity", 1, 30, 2),
              make_coloring("constant", 1, 30, 2, param=(1,)),
              make_coloring("mod", 1, 30, 3, param=(3,)),
              make_coloring("blocks", 1, 30, 2, param=(3, 2))]
    family += [make_coloring("random", 1, 30, 2, seed=s) for s in range(20)]
    family += [make_coloring("random", 1, 30, 3, seed=s) for s in range(10)]
    pairs = 0
    for col in family:
        for k in (1, 2, 3):
            gens, _ = find_fs_witness_detailed(col, k)
            grid, _ = find_grid_witness_detailed(col, k, 1)
            if (gens is None) != (grid is None):
                return False, (f"k={k}: witness existence disagrees with "
                               f"1-block grids on {col.c}-coloring")
            if gens is not None:
                ok, color = check_fs_witness(col, gens)
                if not ok or grid_common_color(col, gens, 1) != color:
                    return False, f"k={k}: witness {gens} fails as a grid"
                seq, gcolor = grid
                ok2, fcolor = check_fs_witness(col, sorted(seq))
                if not ok2 or fcolor != gcolor:
                    return False, f"k={k}: grid {seq} fails as a witness"
            pairs += 1
    return True, f"32/32 small colorings witnessed; {pairs} grid/fs cells agree"


def criterion_6():
    """Corollary quadruple searches are checker-clean: on 1000 seeded
    2-colorings of [1..500] both quadruple kinds are found and re-verified,
    and 100 planted colorings (derived set one color, everything else the
    other) are all found and re-verified too."""
    t0 = time.perf_counter()
    for seed in range(1000):
        col = make_coloring("random", 1, 500, 2, seed=seed)
        hit, _ = find_scaled_quad_detailed(col)
        if hit is None:
            return False, f"seed {seed}: no scaled quadruple"
        asg, color = hit
        if instance_color(SCALED_QUAD, col, asg) != color:
            return False, f"seed {seed}: scaled checker rejected {asg}"
        hit, _ = find_shifted_quad_detailed(col)
        if hit is None:
            return False, f"seed {seed}: no shifted quadruple"
        asg, color = hit
        if instance_color(SHIFTED_QUAD, col, asg) != color:
            return False, f"seed {seed}: shifted checker rejected {asg}"

    for trial in range(100):
        a = 1 + trial % 4
        x = 2 + trial % 5
        y = 2 + (trial * 7) % 6
        derived = {a * x, a * y, x * y, a * (x + y)}
        cells = tuple(0 if v in derived else 1 for v in range(1, 501))
        col = Coloring(d=1, N=500, c=2, cells=cells)
        if instance_color(SCALED_QUAD, col, {"a": a, "x": x, "y": y}) != 0:
            return False, f"trial {trial}: planted quadruple fails its check"
        hit, _ = find_scaled_quad_detailed(col)
        if hit is None:
            return False, f"trial {trial}: nothing found in planted coloring"
        asg, color = hit
        if instance_color(SCALED_QUAD, col, asg) != color:
            return False, f"trial {trial}: found quadruple fails its check"
    elapsed = time.perf_counter() - t0
    return True, f"1000 seeded + 100 planted searches verified in {elapsed:.1f}s"


def criterion_7():
    """The full order-3 operation census (19683 tables) classifies in under
    10s: exactly 113 associative, and every semigroup has idempotents,
    minimal idempotents, and an idempotent inside each minimal left
    ideal."""
    t0 = time.perf_counter()
    total = 0
    associative = 0
    for rows in iter_tables(3):
        total += 1
        if find_associativity_violation(rows) is not None:
            continue
        associative += 1
        table = table_from_rows(rows)
        rep = algebra_report(table)
        if not rep.idempotents:
            return False, f"semigroup {rows} has no idempotent"
        if not rep.minimal_idempotents:
            return False, f"semigroup {rows} has no minimal idempotent"
        for ideal in rep.minimal_left_ideals:
            if not any(table.add(e, e) == e for e in ideal):
                return False, f"ideal {ideal} of {rows} has no idempotent"
    elapsed = time.perf_counter() - t0
    if total != 19683:
        return False, f"expected 19683 tables, saw {total}"
    if associative != 113:
        return False, f"expected 113 associative tables, saw {associative}"
    if elapsed >= 10.0:
        return False, f"took {elapsed:.2f}s (limit 10s)"
    return True, f"19683 tables, 113 semigroups, all clean in {elapsed:.2f}s"


def criterion_8():
    """Serialization is bit-stable: the N=4 avoidance CNF matches its
    frozen DIMACS byte for byte (and still solves to the known avoiding
    coloring), coloring files survive a save/load round trip exactly, and
    witness records reload equal and re-verify."""
    schema = parse_pattern(SCHUR)
    formula, vmap = satmod.encode_avoidance(schema, 4, 2)
    text = satmod.export_dimacs(formula)
    if text != GOLDEN_DIMACS_N4:
        return False, "DIMACS export differs from the frozen golden text"
    verdict = satmod.solve(satmod.parse_dimacs(text))
    if verdict.status != satmod.SAT or vmap.decode(verdict.model).cells != (0, 1, 1, 0):
        return False, "golden CNF no longer solves to (0, 1, 1, 0)"

    with tempfile.TemporaryDirectory() as tmp:
        col = make_coloring("random", 1, 37, 3, seed=11)
        path = os.path.join(tmp, "c.grid")
        save_file(col, path)
        back = load_file(path)
        if back.cells != col.cells or (back.d, back.N, back.c) != (1, 37, 3):
            return False, "coloring file round trip changed the cells"
        save_file(back, path)
        with open(path, "rb") as fh:
            first = fh.read()
        save_file(load_file(path), path)
        with open(path, "rb") as fh:
            if fh.read() != first:
                return False, "coloring file bytes are not stable"

        par = make_coloring("parity", 1, 40, 2)
        gens, _ = find_fs_witness_detailed(par, 2)
        ok, color = check_fs_witness(par, gens)
        spec = ColoringSpec(kind="generator", generator="parity",
                            d=1, N=40, c=2)
        record = make_witness("fs", {"generators": list(gens), "k": 2,
                                     "color": color},
                              coloring_spec=spec)
        wpath = os.path.join(tmp, "w.json")
        save_witness(wpath, record)
        loaded = load_witness(wpath)
        if loaded != record:
            return False, "witness record round trip changed the record"
        ok, detail = verify_witness(loaded)
        if not ok:
            return False, f"reloaded witness failed verification: {detail}"
    return True, "golden DIMACS, coloring files, and witness records all stable"


def criterion_9():
    """Reports depend only on the query: each searching subcommand, run in
    three fresh ``python -m ramseylab.cli`` processes with PYTHONHASHSEED
    0, 1 and 2 and --workers 1, 4 and 8, prints byte-identical stdout
    (deterministic output is the default)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    commands = [
        ["threshold", "--pattern", SCHUR, "--colors", "2", "--n-max", "6"],
        ["find", "--pattern", SUM_PRODUCT_QUAD, "--generator", "random",
         "--n", "60", "--colors", "2", "--seed", "7"],
        ["fs-witness", "--generator", "parity", "--n", "60", "--colors", "2",
         "--k", "3"],
        ["grid-witness", "--generator", "parity", "--n", "30", "--colors",
         "2", "--length", "3", "--blocks", "2"],
        ["bundle14", "--generator", "parity", "--n", "60", "--colors", "2",
         "--k", "2"],
        ["bundle15", "--generator", "parity", "--n", "60", "--colors", "2",
         "--k", "2"],
        ["avoid", "--pattern", SCHUR, "--n", "13", "--colors", "3"],
    ]
    for argv in commands:
        outputs = []
        for hash_seed, workers in (("0", "1"), ("1", "4"), ("2", "8")):
            proc = subprocess.run(
                [sys.executable, "-m", "ramseylab.cli", *argv,
                 "--workers", workers],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                         PYTHONPATH=path),
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return False, (f"{argv[0]} exited {proc.returncode} at hash "
                               f"seed {hash_seed}, {workers} workers")
            outputs.append(proc.stdout)
        if len(set(outputs)) != 1:
            return False, f"{argv[0]} output varies between processes"
    return True, (f"{len(commands)} subcommands byte-identical in 3 processes "
                  "(hash seeds 0/1/2, 1/4/8 workers)")


CRITERIA = (
    (1, "small-threshold-three-engines", criterion_1),
    (2, "three-color-threshold", criterion_2),
    (3, "finite-claim-sweeps", criterion_3),
    (4, "engine-agreement", criterion_4),
    (5, "fs-grid-witnesses", criterion_5),
    (6, "corollary-quads", criterion_6),
    (7, "semigroup-census", criterion_7),
    (8, "serialization", criterion_8),
    (9, "cli-determinism", criterion_9),
)


def run_criteria(ids=None):
    """Run the selected criteria (all by default); returns a list of
    (id, name, passed, detail).  A criterion that raises is a failure with
    the exception in the detail, never a crash of the runner."""
    wanted = set(ids) if ids else None
    results = []
    for cid, name, fn in CRITERIA:
        if wanted is not None and cid not in wanted:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # honest failure, not a crash
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((cid, name, passed, detail))
    return results
