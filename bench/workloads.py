"""The benchmark's workloads and their known answers.

Every query carries the verdict it must give and the source of that
answer (``SOURCES``).  A query's ``run`` is the timed call; its ``check``
runs after the timed region and returns an error string or ``None``.
Checks use the harness's own arithmetic for scan hits, corollary
quadruples and semigroup invariants, and the library's checkers
(``find_instance``, ``verify_witness``) for certificates and witnesses.

Workloads are built for a tier: ``full`` is what the benchmark measures,
``tiny`` is the quick tier the smoke test runs.  Colorings that depend on
the workload seed use coloring seeds ``10000 * seed + i``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

from ramseylab import cli, colorings, hindman, search, semigroups
from ramseylab.colorings import Coloring
from ramseylab.patterns import parse_pattern

SOURCES = {
    "schur": "Schur numbers S(2)=4, S(3)=13, S(4)=44 (Baumert 1965)",
    "vdw": "van der Waerden numbers W(3,2)=9, W(3,3)=27, W(4,2)=35 "
           "(Beeler & O'Neil 1979)",
    "weak-schur": "weak Schur number WS(3)=23 (Eliahou, Marin, Revuelta "
                  "& Sanz 2012)",
    "sum-product": "acceptance criterion 3: seeded random 2-colorings of "
                   "[1..252], and of [2..990] with variables >= 2, contain "
                   "a monochromatic {x, y, x*y, x+y}; each hit is re-checked "
                   "with the harness's own arithmetic",
    "base5-proof": "the last nonzero base-5 digit coloring avoids "
                   "{x, y, 4*x+4*y} for every N (see base5_color)",
    "v2-proof": "the parity of the 2-adic valuation avoids {x, 2*x} for "
                "every N, since v2(2x) = v2(x) + 1",
    "witness": "no closed form; the witness is re-checked by a verify "
               "query and by the library checker",
    "quad": "no closed form; the quadruple is re-checked with the "
            "harness's own arithmetic",
    "verify": "the find query's witness was re-checked before it was "
              "saved, so verify must accept it",
    "a023814": "semigroups on n labeled elements: 1, 8, 113 (OEIS A023814)",
    "zm-mul": "(Z_m, *) has 2^omega(m) idempotents, the single minimal "
              "idempotent 0 and the single minimal left ideal {0}",
    "zm-add": "(Z_m, +) is a group: one idempotent, 0, and one minimal "
              "left ideal, Z_m itself",
    "band": "the a x b rectangular band (i,j)+(k,l) = (i,l) has a*b "
            "idempotents, all minimal, and b minimal left ideals",
}


@dataclass
class Query:
    label: str
    run: Callable[[], tuple]  # -> (exit code, report bytes)
    check: Callable[[int, bytes], Optional[str]]
    expect: str
    source: str


def summary(code: int, report: bytes) -> tuple:
    """(verdict, node count) of a report, for the record rows."""
    try:
        obj = json.loads(report)
    except ValueError:
        return None, None
    if isinstance(obj, dict):
        stats = obj.get("stats") or {}
        return obj.get("verdict"), stats.get("nodes")
    return None, None


# ---------------------------------------------------------------------------
# the harness's own arithmetic

_M64 = (1 << 64) - 1


def splitmix_color(seed: int, index: int, c: int) -> int:
    """The documented color of 0-based cell ``index`` of a ``random``
    coloring, computed here from the formula in the colorings module's
    docstring rather than through the library."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) % c


def base5_color(n: int) -> int:
    """Last nonzero base-5 digit of n, minus one: a 4-coloring.

    It avoids {x, y, 4x+4y}.  Write x = 5^i (5s + d), y = 5^j (5t + e) with
    d, e in 1..4 and suppose d = e.  If i = j, the last nonzero digit of
    x + y is 2d mod 5, which is not 0; if i < j it is d.  Multiplying by 4
    turns a last digit r into 4r mod 5, so 4x+4y ends in 8d = 3d or in 4d
    (mod 5), and neither equals d because 2d and 3d are nonzero mod 5."""
    while n % 5 == 0:
        n //= 5
    return n % 5 - 1


def v2_parity(n: int) -> int:
    """Parity of the 2-adic valuation of n."""
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k % 2


def omega(m: int) -> int:
    """Number of distinct prime factors."""
    count, p = 0, 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (1 if m > 1 else 0)


# ---------------------------------------------------------------------------
# query builders


def _run_cli(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode()
    return run


def cli_query(argv, expect, source, check_report=None) -> Query:
    """An in-process CLI query.  It must exit 0 with the expected verdict;
    ``check_report(report dict)`` adds the query's own known-answer check."""

    def check(code, report):
        if code != 0:
            return f"exit code {code}, expected 0"
        obj = json.loads(report)
        if obj.get("verdict") != expect:
            return f"verdict {obj.get('verdict')!r}, expected {expect!r}"
        return check_report(obj) if check_report else None

    return Query(label="ramseylab " + " ".join(argv), run=_run_cli(argv),
                 check=check, expect=expect, source=source)


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _certificate_error(schema, N, c, cells) -> Optional[str]:
    """An avoiding coloring of [1..N] must have N cells in 0..c-1 and no
    monochromatic instance, by the library's instance scan."""
    if cells is None or len(cells) != N:
        return f"certificate has {None if cells is None else len(cells)} " \
               f"cells, expected {N}"
    if any(not 0 <= v < c for v in cells):
        return "certificate color out of range"
    col = Coloring(d=1, N=N, c=c, cells=tuple(cells))
    hit = search.find_instance(search.InstanceQuery(schema=schema, coloring=col))
    return None if hit is None else f"certificate is monochromatic at {hit}"


# ---------------------------------------------------------------------------
# ladder

SCHUR = "{x, y, x+y}"
AP3 = "{a, a+d, a+2*d}"
AP4 = "{a, a+d, a+2*d, a+3*d}"

# pattern, colors, --distinct, threshold N*, source
RUNGS = (
    (SCHUR, 2, False, 5, "schur"),
    (SCHUR, 3, False, 14, "schur"),
    (AP3, 2, False, 9, "vdw"),
    (AP3, 3, False, 27, "vdw"),
    (AP4, 2, False, 35, "vdw"),
    (SCHUR, 3, True, 24, "weak-schur"),
)
TINY_RUNGS = RUNGS[:3]


def _pattern_argv(pattern, distinct):
    return ["--pattern", pattern] + (["--distinct"] if distinct else [])


def _threshold_query(pattern, c, distinct, n_star, source, engine):
    schema = parse_pattern(pattern, distinct_vars=distinct)

    def check_report(obj):
        w = obj["witness"]
        if w["threshold"] != n_star:
            return f"threshold {w['threshold']}, expected {n_star}"
        return _certificate_error(schema, n_star - 1, c, w["certificate"])

    argv = (["threshold"] + _pattern_argv(pattern, distinct)
            + ["--colors", str(c), "--n-max", str(n_star + 5),
               "--engine", engine])
    return cli_query(argv, "found", source, check_report)


def _avoid_query(pattern, c, distinct, n, source, engine):
    schema = parse_pattern(pattern, distinct_vars=distinct)

    def check_report(obj):
        return _certificate_error(schema, n, c, obj["witness"]["cells"])

    argv = (["avoid"] + _pattern_argv(pattern, distinct)
            + ["--n", str(n), "--colors", str(c), "--engine", engine])
    return cli_query(argv, "sat", source, check_report)


def ladder(tier, seed, workdir):
    """Thresholds on both engines, plus the avoiding coloring at N*-1 of
    every rung; the seed is ignored (no random inputs)."""
    rungs = RUNGS if tier == "full" else TINY_RUNGS
    queries = []
    for engine in ("backtracking", "sat"):
        for pattern, c, distinct, n_star, source in rungs:
            queries.append(_threshold_query(pattern, c, distinct, n_star,
                                            source, engine))
        for pattern, c, distinct, n_star, source in rungs:
            queries.append(_avoid_query(pattern, c, distinct, n_star - 1,
                                        source, engine))
    s4_n, s4_c = (44, 4) if tier == "full" else (13, 3)
    queries.append(_avoid_query(SCHUR, s4_c, False, s4_n, "schur", "sat"))
    return queries


# ---------------------------------------------------------------------------
# scan-sweep

SUM_PRODUCT = "{x, y, x*y, x+y}"


def _sweep_query(schema, N, seed) -> Query:
    """Library make_coloring + find_instance; the hit is re-checked with
    the harness's own arithmetic."""

    def run():
        col = colorings.make_coloring("random", 1, N, 2, seed=seed)
        hit, nodes = search.find_instance_detailed(
            search.InstanceQuery(schema=schema, coloring=col))
        verdict = "found" if hit is not None else "none"
        return 0, _canonical({"verdict": verdict, "hit": hit,
                              "stats": {"nodes": nodes}})

    def check(code, report):
        obj = json.loads(report)
        if obj["verdict"] != "found":
            return f"verdict {obj['verdict']!r}, expected 'found'"
        asg, color = obj["hit"]
        x, y = asg["x"], asg["y"]
        if min(x, y) < schema.min_value:
            return f"variable below {schema.min_value}: {asg}"
        values = {x, y, x * y, x + y}
        if max(values) > N:
            return f"instance {sorted(values)} leaves [1..{N}]"
        cols = {splitmix_color(seed, v - 1, 2) for v in values}
        if cols != {color}:
            return f"instance {sorted(values)} has colors {cols}, " \
                   f"reported {color}"
        return None

    label = (f"find_instance({SUM_PRODUCT}, min_value={schema.min_value}, "
             f"random N={N} c=2 seed={seed})")
    return Query(label=label, run=run, check=check, expect="found",
                 source="sum-product")


def _full_miss_query(path, pattern, leaves, source) -> Query:
    """CLI find on a coloring that avoids the pattern: the verdict is
    "none" and the scan must visit every in-box assignment."""

    def check_report(obj):
        if obj["stats"]["nodes"] != leaves:
            return f"{obj['stats']['nodes']} leaves, expected {leaves}"
        return None

    return cli_query(["find", "--pattern", pattern, "--coloring-file", path],
                     "none", source, check_report)


def _write_coloring(path, N, c, color_of):
    colorings.save_file(Coloring(d=1, N=N, c=c, cells=tuple(
        color_of(n) for n in range(1, N + 1))), path)


def scan_sweep(tier, seed, workdir):
    """(a) Many seeded random colorings against {x, y, x*y, x+y}; (b) two
    full-miss scans over colorings that provably avoid their pattern."""
    n_low, n_high = (600, 400) if tier == "full" else (20, 20)
    n_base5, n_v2 = (3000, 100000) if tier == "full" else (300, 2000)
    low = parse_pattern(SUM_PRODUCT)
    high = parse_pattern(SUM_PRODUCT, min_value=2)
    queries = [_sweep_query(low, 252, 10000 * seed + i) for i in range(n_low)]
    queries += [_sweep_query(high, 990, 10000 * seed + i)
                for i in range(n_high)]
    _write_coloring(os.path.join(workdir, "base5.txt"), n_base5, 4,
                    base5_color)
    _write_coloring(os.path.join(workdir, "v2.txt"), n_v2, 2, v2_parity)
    # in-box assignments: x + y <= N/4 for the first, x <= N/2 for the second
    s = n_base5 // 4
    queries.append(_full_miss_query("base5.txt", "{x, y, 4*x+4*y}",
                                    s * (s - 1) // 2, "base5-proof"))
    queries.append(_full_miss_query("v2.txt", "{x, 2*x}", n_v2 // 2,
                                    "v2-proof"))
    return queries


# ---------------------------------------------------------------------------
# witness-hunt


def _witness_pair(argv, path, workers) -> list:
    """A find query that saves its witness, then a verify query on it."""

    def check_report(obj):
        ok, detail = hindman.verify_witness(hindman.load_witness(path))
        return None if ok else f"library verify rejects the witness: {detail}"

    find = cli_query(argv + ["--workers", str(workers), "--witness-out", path],
                     "found", "witness", check_report)
    verify = cli_query(["verify", path], "valid", "verify")
    return [find, verify]


def _quad_query(name, N, seed, workers) -> Query:
    """bundle14/bundle15 --corollary; the quadruple is re-checked with the
    harness's own arithmetic."""

    def check_report(obj):
        w = obj["witness"]
        asg, color = w["assignment"], w["color"]
        if name == "bundle14":
            a, x, y = asg["a"], asg["x"], asg["y"]
            values = {a * x, a * y, x * y, a * (x + y)}
        else:
            b, u, v = asg["b"], asg["u"], asg["v"]
            values = {u + b, v + b, u * v + b, u + v}
        if max(values) > N:
            return f"quadruple {sorted(values)} leaves [1..{N}]"
        cols = {splitmix_color(seed, v - 1, 2) for v in values}
        if cols != {color}:
            return f"quadruple {sorted(values)} has colors {cols}"
        return None

    argv = [name, "--corollary", "--generator", "random", "--n", str(N),
            "--colors", "2", "--seed", str(seed), "--workers", str(workers)]
    return cli_query(argv, "found", "quad", check_report)


def witness_hunt(tier, seed, workdir):
    """Witness finders at 2 workers over random colorings, each witness
    saved and re-checked by a verify query.

    The workload seed picks the coloring seeds of the grid, bundle14 and
    corollary queries.  The fs-witness and bundle15 probes keep coloring
    seeds 0.. whatever the workload seed.  Their cost is heavy-tailed
    across colorings: over 40 random colorings of [1..3000] the costliest
    k=5 fs searches visit 170k nodes against a median of about 3k, and
    bundle15 on [1..100] visits 160k to 290k.  Seeded probes would make
    the run-to-run spread larger than any bound worth having.  On a
    2-core machine bundle15 on seed 0 runs about 3x slower at 2 workers
    than at 1."""
    workers = 2
    full = tier == "full"
    n_seeds, n_fs, n_b15 = (10, 4, 2) if full else (1, 1, 1)
    sizes = ({"fs": 3000, "grid": 200, "b14": 200, "quad": 500, "b15": 100}
             if full else
             {"fs": 500, "grid": 60, "b14": 60, "quad": 100, "b15": 40})
    queries = []

    def rnd(n, s):
        return ["--generator", "random", "--n", str(n), "--colors", "2",
                "--seed", str(s)]

    for i in range(n_seeds):
        s = 10000 * seed + i
        queries += _witness_pair(["grid-witness", "--length", "4",
                                  "--blocks", "2"] + rnd(sizes["grid"], s),
                                 f"grid-{i}.json", workers)
        queries += _witness_pair(["bundle14", "--k", "2"]
                                 + rnd(sizes["b14"], s),
                                 f"b14-{i}.json", workers)
        queries.append(_quad_query("bundle14", sizes["quad"], s, workers))
        queries.append(_quad_query("bundle15", sizes["quad"], s, workers))
    for s in range(n_fs):
        queries += _witness_pair(["fs-witness", "--k", "5"]
                                 + rnd(sizes["fs"], s),
                                 f"fs-{s}.json", workers)
    for s in range(n_b15):
        queries += _witness_pair(["bundle15", "--k", "2"]
                                 + rnd(sizes["b15"], s),
                                 f"b15-{s}.json", workers)
    return queries


# ---------------------------------------------------------------------------
# algebra


def _census_query(n, expected) -> Query:
    """iter_semigroups(n) with algebra_report on every semigroup found."""

    def run():
        tables = list(semigroups.iter_semigroups(n))
        reports = [semigroups.algebra_report(t).to_json() for t in tables]
        return 0, _canonical({"verdict": len(tables), "reports": reports})

    def check(code, report):
        obj = json.loads(report)
        if obj["verdict"] != expected:
            return f"{obj['verdict']} semigroups of order {n}, " \
                   f"expected {expected}"
        if any(r["n"] != n for r in obj["reports"]):
            return "a report has the wrong order"
        return None

    return Query(label=f"census iter_semigroups({n}) + algebra_report",
                 run=run, check=check, expect=str(expected),
                 source="a023814")


def _semigroup_query(path, n, add, idempotents, min_idempotents,
                     min_ideals, subset, s, source) -> Query:
    """CLI semigroup with a central subset and a translate; every expected
    field is computed from the operation by the harness."""
    central = any(e in subset for e in min_idempotents)
    translate = sorted(t for t in range(n) if add(s, t) in subset)

    def check_report(obj):
        w = obj["witness"]
        got = (len(w["idempotents"]), w["minimal_idempotents"],
               len(w["minimal_left_ideals"]), w["central"], w["translate"])
        want = (idempotents, sorted(min_idempotents), min_ideals, central,
                translate)
        return None if got == want else f"report {got}, expected {want}"

    argv = ["semigroup", "--table", path, "--central-subset",
            ",".join(map(str, sorted(subset))), "--translate-by", str(s)]
    return cli_query(argv, "analyzed", source, check_report)


def _write_table(path, n, add):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        for x in range(n):
            fh.write(" ".join(str(add(x, y)) for y in range(n)) + "\n")


def algebra(tier, seed, workdir):
    """The order-2 and order-3 census, then semigroup reports on generated
    tables with known invariants; the seed is ignored."""
    if tier == "full":
        censuses = ((2, 8), (3, 113))
        moduli = (12, 30, 36, 60, 64, 90, 105, 128, 210, 256)
        bands = ((2, 3), (4, 8), (8, 8), (12, 10), (6, 20), (16, 16))
    else:
        censuses = ((2, 8),)
        moduli = (6, 12)
        bands = ((2, 3),)
    queries = [_census_query(n, expected) for n, expected in censuses]
    for m in moduli:
        def mul(x, y, m=m):
            return x * y % m

        def add(x, y, m=m):
            return (x + y) % m

        path = f"mul{m}.txt"
        _write_table(os.path.join(workdir, path), m, mul)
        queries.append(_semigroup_query(
            path, m, mul, 2 ** omega(m), [0], 1, {0, 1, m - 1}, m - 1,
            "zm-mul"))
        path = f"add{m}.txt"
        _write_table(os.path.join(workdir, path), m, add)
        queries.append(_semigroup_query(
            path, m, add, 1, [0], 1, {1, 2, m // 2}, 3, "zm-add"))
    for a, b in bands:
        n = a * b

        def band(x, y, b=b):
            return (x // b) * b + y % b

        path = f"band{a}x{b}.txt"
        _write_table(os.path.join(workdir, path), n, band)
        queries.append(_semigroup_query(
            path, n, band, n, list(range(n)), b, {1, n - 1}, n // 2, "band"))
    return queries


BUILDERS = {"ladder": ladder, "scan-sweep": scan_sweep,
            "witness-hunt": witness_hunt, "algebra": algebra}


def build(name, tier, seed, workdir) -> list:
    """Parse patterns, write the workload's files into ``workdir`` and
    return its query list."""
    return BUILDERS[name](tier, seed, workdir)
