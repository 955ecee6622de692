"""Command-line front end.

Every subcommand but ``suite`` prints one canonical JSON report to stdout::

    {"schema_version": 1, "query": {...}, "verdict": "...",
     "witness": ..., "stats": {"engine": ..., "nodes": ..., "time_ms": ...}}

Colorings are of [1..N]: --coloring-file reads one from a "1 N c" file,
and --generator builds one from --n, --colors, --param and --seed.

Every report goes through one path, in main(): a subcommand only echoes
its query and hands back its search, and main() times the search, writes
the report to stdout and to --out (the same bytes, error reports too) and
picks the exit code: 0 when the question was answered (in either
direction), 1 on usage or input errors (verdict "error", with the message
under "error"), 2 when a node/conflict budget ran out first (verdict
"unknown", in one shape for every subcommand, with no "error" key).

Every search is one in-order depth-first walk on one thread; --workers is
accepted and ignored.  Reports are deterministic by default — time_ms is
zeroed, so the same query produces byte-identical output whatever the
machine; pass --timing for the wall-clock time of the search, on every
subcommand.  A node budget of B (--max-nodes, --budget) gives the answer
when the search needs at most B nodes; otherwise node B + 1 stops it, and
the report has verdict "unknown", the usual query echo and nodes B + 1.
The sat engine reads --max-nodes as a conflict budget and reports
conflicts plus decisions.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import sat as satmod
from .colorings import (GENERATORS, Coloring, ColoringSpec, load_file,
                        save_file)
from .errors import BudgetExceededError, MalformedInputError, RamseyError
from .hindman import (BUILTIN_OPS, SCALED_QUAD, SHIFTED_QUAD, CutGrid,
                      builtin_op, check_bundle, check_composed_witness,
                      check_depth_indexed_witness, check_fs_witness,
                      composed_color_by_depth,
                      find_fs_witness_detailed, find_grid_witness_detailed,
                      find_scaled_bundle_detailed, find_scaled_quad_detailed,
                      find_shifted_bundle_detailed,
                      find_shifted_quad_detailed, grid_common_color,
                      load_op_table, load_witness, make_witness,
                      save_witness, verify_witness)
from .patterns import format_pattern, instantiate, parse_pattern
from .search import (ENGINES, InstanceQuery, find_all_instances_detailed,
                     find_avoiding_coloring, find_instance_detailed,
                     threshold_number)
from .semigroups import algebra_report, is_central, load_table, translate_set

PROG = "ramseylab"


def _canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the report contract reserves 2 for
    exhausted budgets, so remap to 1.  Subparsers share this class, so no
    parser takes an abbreviated flag (a bare ``--d`` is not ``--distinct``)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand refuses what it does not know itself, so the error
        # shows its usage rather than the top-level one
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip() != "")
    except ValueError:
        raise MalformedInputError(f"expected comma-separated integers, got {text!r}")


def _add_coloring_args(p: argparse.ArgumentParser):
    g = p.add_argument_group("coloring source")
    g.add_argument("--coloring-file", metavar="FILE",
                   help="read the coloring from a grid file")
    g.add_argument("--generator", choices=GENERATORS,
                   help="build the coloring from a named generator")
    g.add_argument("--n", type=int, help="box size N")
    g.add_argument("--colors", type=int, help="number of colors")
    g.add_argument("--param", default="",
                   help="generator parameters, comma separated")
    g.add_argument("--seed", type=int, default=0,
                   help="seed for the random generator (default 0)")


def _coloring_from_args(args) -> tuple:
    """Returns (coloring, spec).  Exactly one source must be given."""
    if args.coloring_file and args.generator:
        raise RamseyError("give either --coloring-file or --generator, not both")
    if args.coloring_file:
        spec = ColoringSpec(kind="file", path=args.coloring_file)
        return load_file(args.coloring_file), spec
    if args.generator:
        if args.n is None or args.colors is None:
            raise RamseyError("--generator needs --n and --colors")
        spec = ColoringSpec(kind="generator", generator=args.generator,
                            N=args.n, c=args.colors,
                            param=_csv_ints(args.param), seed=args.seed)
        return spec.load(), spec
    raise RamseyError("no coloring given (use --coloring-file or --generator)")


def _maybe_save_witness(args, kind: str, data: dict, spec: ColoringSpec):
    path = getattr(args, "witness_out", None)
    if path:
        save_witness(path, make_witness(kind, data, coloring_spec=spec,
                                        validated=True))


def _recheck(ok: bool, detail: str) -> None:
    """The independent re-check of a finder's hit before it is printed: a
    refused hit is an error (verdict ``error``, exit 1), never a witness."""
    if not ok:
        raise RamseyError(f"finder hit failed its re-check: {detail}")


def _finder(search, witness_of):
    """The run of a finder: ``search()`` returns (hit or None, nodes), and
    the verdict is found if the hit is non-empty, else none, with witness
    ``witness_of(hit)`` unless it is None."""
    def run():
        hit, nodes = search()
        return ("found" if hit else "none",
                None if hit is None else witness_of(hit), nodes)
    return run


def _instance_witness(coloring: Coloring, schema):
    """The witness of a hit (assignment, color) of ``schema``, after its
    terms are re-evaluated at the assignment and their colors re-read."""
    def witness_of(hit):
        asg, color = hit
        _recheck(all(coloring.value_color(v) == color
                      for v in instantiate(schema, asg)),
                 "instance values differ in color")
        return {"assignment": asg, "color": color}
    return witness_of


# ---------------------------------------------------------------------------
# subcommands: each returns (query echo, engine, run), where run() does the
# search and returns (verdict, witness, nodes); main() reports it


def _pattern_query(args) -> tuple:
    """The schema of --pattern/--distinct/--min-value and its query echo."""
    schema = parse_pattern(args.pattern, distinct_vars=args.distinct,
                           min_value=args.min_value)
    return schema, {"command": args.command, "pattern": format_pattern(schema),
                    "distinct": schema.distinct_vars,
                    "min_value": schema.min_value}


def cmd_find(args) -> tuple:
    schema, query = _pattern_query(args)
    coloring, spec = _coloring_from_args(args)
    query["coloring"] = spec.to_json()
    iq = InstanceQuery(schema=schema, coloring=coloring)
    witness_of = _instance_witness(coloring, schema)
    if not args.all:
        return query, "scan", _finder(
            lambda: find_instance_detailed(iq, max_nodes=args.max_nodes),
            witness_of)
    return query, "scan", _finder(
        lambda: find_all_instances_detailed(iq, limit=args.max_witnesses,
                                            max_nodes=args.max_nodes),
        lambda hits: [witness_of(hit) for hit in hits])


def cmd_avoid(args) -> tuple:
    schema, query = _pattern_query(args)
    query.update(n=args.n, colors=args.colors, engine=args.engine)

    def run():
        res = find_avoiding_coloring(schema, args.n, args.colors,
                                     engine=args.engine,
                                     max_nodes=args.max_nodes)
        witness = None
        if res.coloring is not None:
            witness = {"cells": list(res.coloring.cells)}
            if args.coloring_out:
                save_file(res.coloring, args.coloring_out)
        return res.verdict, witness, res.stats.nodes
    return query, args.engine, run


def cmd_threshold(args) -> tuple:
    schema, query = _pattern_query(args)
    query.update(colors=args.colors, n_max=args.n_max, engine=args.engine)

    def run():
        res = threshold_number(schema, args.colors, args.n_max,
                               engine=args.engine, max_nodes=args.max_nodes)
        witness = None
        if res.threshold is not None:
            witness = {"threshold": res.threshold,
                       "certificate": (list(res.certificate.cells)
                                       if res.certificate else None)}
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("N,verdict,nodes,time_ms\n")
                for N, verdict, n_nodes, t_ms in res.rows:
                    ms = round(t_ms, 3) if args.timing else 0.0
                    fh.write(f"{N},{verdict},{n_nodes},{ms}\n")
        return res.status, witness, sum(r[2] for r in res.rows)
    return query, args.engine, run


def cmd_encode(args) -> tuple:
    schema, query = _pattern_query(args)
    query.update(n=args.n, colors=args.colors,
                 symmetry_break=args.symmetry_break)

    def run():
        formula, _ = satmod.encode_avoidance(
            schema, args.n, args.colors, symmetry_break=args.symmetry_break)
        with open(args.out_cnf, "w", encoding="utf-8") as fh:
            fh.write(satmod.export_dimacs(formula))
        return "encoded", {"path": args.out_cnf, "vars": formula.var_count,
                           "clauses": len(formula.clauses)}, 0
    return query, "encode", run


def cmd_solve(args) -> tuple:
    if (args.n is None) != (args.colors is None):
        raise RamseyError("decoding the model needs both --n and --colors")
    with open(args.cnf, "r", encoding="utf-8") as fh:
        formula = satmod.parse_dimacs(fh.read())
    query = {"command": "solve", "cnf": args.cnf,
             "vars": formula.var_count, "clauses": len(formula.clauses)}

    def run():
        sv = satmod.solve(formula, max_conflicts=args.max_conflicts)
        witness = None
        if sv.status == satmod.SAT:
            witness = {"model": list(sv.model)}
            if args.n is not None:
                vmap = satmod.ColorVarMap(N=args.n, c=args.colors)
                witness["cells"] = list(vmap.decode(sv.model).cells)
        if args.model_out and sv.status != satmod.UNKNOWN:
            with open(args.model_out, "w", encoding="utf-8") as fh:
                fh.write(satmod.format_solver_output(sv))
        verdict = {satmod.SAT: "sat", satmod.UNSAT: "unsat",
                   satmod.UNKNOWN: "unknown"}[sv.status]
        return verdict, witness, sv.conflicts + sv.decisions
    return query, "sat", run


def cmd_fs_witness(args) -> tuple:
    coloring, spec = _coloring_from_args(args)
    query = {"command": "fs-witness", "k": args.k,
             "coloring": spec.to_json()}

    def witness_of(hit):
        ok, color = check_fs_witness(coloring, hit)
        _recheck(ok, "subset sums differ in color")
        witness = {"generators": list(hit), "color": color}
        _maybe_save_witness(args, "fs", dict(witness, k=args.k), spec)
        return witness

    return query, "fs-scan", _finder(
        lambda: find_fs_witness_detailed(coloring, args.k, budget=args.budget),
        witness_of)


def cmd_grid_witness(args) -> tuple:
    coloring, spec = _coloring_from_args(args)
    query = {"command": "grid-witness", "length": args.length,
             "blocks": args.blocks, "coloring": spec.to_json()}

    def witness_of(hit):
        seq, color = hit
        _recheck(grid_common_color(coloring, seq, args.blocks) == color,
                 "grid values differ in color")
        witness = {"sequence": list(seq), "d": args.blocks, "color": color}
        _maybe_save_witness(args, "grid", dict(witness), spec)
        return witness

    return query, "grid-scan", _finder(
        lambda: find_grid_witness_detailed(coloring, args.length, args.blocks,
                                           budget=args.budget),
        witness_of)


def _op_from_args(args, coloring: Coloring):
    if args.op_table:
        return load_op_table(args.op_table)
    n = args.op_n if args.op_n is not None else coloring.N
    return builtin_op(args.op, n)


def cmd_composed_witness(args) -> tuple:
    coloring, spec = _coloring_from_args(args)
    op = _op_from_args(args, coloring)
    seq = _csv_ints(args.sequence)
    base = {"command": "composed-witness", "sequence": list(seq),
            "op": op.to_json(), "coloring": spec.to_json()}
    if args.profile_depth is not None:
        query = dict(base, mode="profile", d_max=args.profile_depth)
        return query, "composed-check", lambda: ("profiled", {
            "profile": composed_color_by_depth(coloring, op, seq,
                                               args.profile_depth)}, 0)
    if args.depth_set_m0 is not None:
        query = dict(base, mode="depth-indexed", m0=args.depth_set_m0)
        check = lambda: check_depth_indexed_witness(coloring, op, seq,
                                                    args.depth_set_m0)
    else:
        cuts = _csv_ints(args.cuts)
        query = dict(base, mode="check", cuts=list(cuts))
        check = lambda: check_composed_witness(coloring, op, CutGrid(seq, cuts))

    def run():
        ok, color = check()
        return ("valid", {"color": color}, 0) if ok else ("invalid", None, 0)
    return query, "composed-check", run


def cmd_bundle(args) -> tuple:
    coloring, spec = _coloring_from_args(args)
    name = args.command
    if args.corollary:
        query = {"command": name, "mode": "corollary",
                 "coloring": spec.to_json()}
        find, schema = ((find_shifted_quad_detailed, SHIFTED_QUAD)
                        if args.shifted else
                        (find_scaled_quad_detailed, SCALED_QUAD))
        return query, "quad-scan", _finder(
            lambda: find(coloring, max_nodes=args.budget),
            _instance_witness(coloring, schema))
    query = {"command": name, "mode": "bundle", "k": args.k,
             "cap_a": args.cap_a, "coloring": spec.to_json()}
    find = (find_shifted_bundle_detailed if args.shifted
            else find_scaled_bundle_detailed)

    def witness_of(hit):
        ok, detail = check_bundle(coloring, hit)
        _recheck(ok, detail)
        witness = {"lam": hit.lam, "a_set": list(hit.a_set),
                   "b_set": list(hit.b_set), "k": hit.k, "color": hit.color}
        _maybe_save_witness(args, name, dict(witness), spec)
        return witness

    return query, "bundle-scan", _finder(
        lambda: find(coloring, args.k, cap_a=args.cap_a, budget=args.budget),
        witness_of)


def cmd_verify(args) -> tuple:
    record = load_witness(args.witness)
    coloring = None
    if args.coloring_file or args.generator:
        coloring, _ = _coloring_from_args(args)
    query = {"command": "verify", "witness": args.witness,
             "kind": record["kind"]}

    def run():
        ok, detail = verify_witness(record, coloring=coloring)
        return "valid" if ok else "invalid", {"detail": detail}, 0
    return query, "verify", run


def cmd_semigroup(args) -> tuple:
    table = load_table(args.table)

    def run():
        report = algebra_report(table).to_json()
        if args.central_subset is not None:
            subset = _csv_ints(args.central_subset)
            report["subset"] = sorted(subset)
            report["central"] = is_central(table, subset)
            if args.translate_by is not None:
                report["translate_by"] = args.translate_by
                report["translate"] = sorted(
                    translate_set(table, subset, args.translate_by))
        elif args.translate_by is not None:
            raise RamseyError("--translate-by needs --central-subset")
        return "analyzed", report, 0
    return {"command": "semigroup", "table": args.table}, "algebra", run


def cmd_suite(args) -> int:
    from .acceptance import run_criteria
    ids = _csv_ints(args.ids) if args.ids else None
    results = run_criteria(ids)
    failed = 0
    for cid, name, passed, detail in results:
        tag = "PASS" if passed else "FAIL"
        print(f"criterion {cid} [{name}]: {tag} — {detail}")
        if not passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _pattern_args(p):
    p.add_argument("--pattern", required=True,
                   help='pattern schema, e.g. "{x, y, x+y}"')
    p.add_argument("--distinct", action="store_true",
                   help="require pairwise distinct variable values")
    p.add_argument("--min-value", type=int, default=1,
                   help="least admissible variable value (default 1)")


def _search_args(p, budget_flag="--max-nodes"):
    p.add_argument(budget_flag, dest=budget_flag.strip("-").replace("-", "_"),
                   type=int, default=None, help="node/conflict budget")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted and ignored: searches run on one thread")


def _common_out(p):
    p.add_argument("--out", help="also write the report JSON to this file")
    p.add_argument("--timing", action="store_true",
                   help="report wall-clock time_ms instead of 0.0")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find", help="least monochromatic instance in a coloring")
    _pattern_args(p)
    _add_coloring_args(p)
    _search_args(p)
    p.add_argument("--all", action="store_true",
                   help="enumerate instances instead of stopping at the first")
    p.add_argument("--max-witnesses", type=int, default=1000,
                   help="cap for --all (default 1000)")
    _common_out(p)
    p.set_defaults(fn=cmd_find)

    p = sub.add_parser("avoid", help="search for an avoiding coloring of [1..N]")
    _pattern_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--engine", choices=ENGINES, default="backtracking")
    _search_args(p)
    p.add_argument("--coloring-out", help="save a found coloring to this file")
    _common_out(p)
    p.set_defaults(fn=cmd_avoid)

    p = sub.add_parser("threshold",
                       help="least N forcing the pattern in every c-coloring")
    _pattern_args(p)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--engine", choices=ENGINES, default="backtracking")
    _search_args(p)
    p.add_argument("--csv", help="write the per-N scan rows to this CSV file")
    _common_out(p)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("encode", help="write the avoidance CNF as DIMACS")
    _pattern_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--symmetry-break", action="store_true",
                   help="prepend the canonical colour-order block: the "
                        "least value of any instance gets colour 0, and "
                        "colour j >= 2 colours such a value only if j-1 "
                        "colours a smaller one (auxiliary variables follow "
                        "the N*c colour variables); every avoiding colouring "
                        "has a relabelling that meets it, so the verdict "
                        "stays the same")
    p.add_argument("--out-cnf", required=True, metavar="FILE")
    _common_out(p)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("solve", help="run the bundled solver on a DIMACS file")
    p.add_argument("cnf")
    p.add_argument("--max-conflicts", type=int, default=None)
    p.add_argument("--model-out", help="write s/v solver output to this file")
    p.add_argument("--n", type=int, help="decode the model as a coloring of [1..N]")
    p.add_argument("--colors", type=int, help="colors for model decoding")
    _common_out(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("fs-witness",
                       help="least k-generator monochromatic subset-sum closure")
    _add_coloring_args(p)
    p.add_argument("--k", type=int, required=True)
    _search_args(p, "--budget")
    p.add_argument("--witness-out", help="save the witness record here")
    _common_out(p)
    p.set_defaults(fn=cmd_fs_witness)

    p = sub.add_parser("grid-witness",
                       help="least sequence whose d-block grids share one color")
    _add_coloring_args(p)
    p.add_argument("--length", type=int, required=True, help="sequence length L")
    p.add_argument("--blocks", type=int, required=True, help="blocks per cut d")
    _search_args(p, "--budget")
    p.add_argument("--witness-out", help="save the witness record here")
    _common_out(p)
    p.set_defaults(fn=cmd_grid_witness)

    p = sub.add_parser("composed-witness",
                       help="check composed/depth-indexed witnesses")
    _add_coloring_args(p)
    p.add_argument("--sequence", required=True, help="comma-separated entries")
    p.add_argument("--op", choices=BUILTIN_OPS, default="multiplication-capped")
    p.add_argument("--op-table", help="explicit operation table file")
    p.add_argument("--op-n", type=int, help="builtin op domain (default N)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--cuts", help="comma-separated cut tuple m_0,...,m_d")
    mode.add_argument("--profile-depth", type=int,
                      help="profile common colors for d = 1..D instead")
    mode.add_argument("--depth-set-m0", type=int,
                      help="depth-indexed check with this head length")
    _common_out(p)
    p.set_defaults(fn=cmd_composed_witness)

    for name, helptext in (("bundle14", "scaled bundle lam*A ∪ lam*B ∪ "
                            "lam*(A+B) ∪ A*B with structured A"),
                           ("bundle15", "shifted bundle (lam+A) ∪ (lam+B) ∪ "
                            "(lam+A*B) ∪ (A+B) with structured A")):
        p = sub.add_parser(name, help=helptext)
        _add_coloring_args(p)
        p.add_argument("--k", type=int, default=2,
                       help="structure order (default 2)")
        p.add_argument("--cap-a", type=int, default=None,
                       help="largest |A| to try (default min(7, 2^k - 1) for "
                       "bundle14, min(9, 2^k) for bundle15); sizes below "
                       "k(k+1)/2 hold no k-generator FS set and are "
                       "skipped, so a smaller cap, as the default is for "
                       "k >= 4, answers none after 0 nodes")
        p.add_argument("--corollary", action="store_true",
                       help="search the 4-term quadruple pattern instead")
        _search_args(p, "--budget")
        p.add_argument("--witness-out", help="save the witness record here")
        _common_out(p)
        p.set_defaults(fn=cmd_bundle, shifted=name == "bundle15")

    p = sub.add_parser("verify", help="re-check a saved witness record")
    p.add_argument("witness")
    _add_coloring_args(p)
    _common_out(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("semigroup", help="idempotent/ideal report for a table")
    p.add_argument("--table", required=True, help="Cayley table file")
    p.add_argument("--central-subset", help="comma-separated elements")
    p.add_argument("--translate-by", type=int,
                   help="also report subset - s for this s")
    _common_out(p)
    p.set_defaults(fn=cmd_semigroup)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--ids", help="comma-separated criterion ids (default all)")
    p.set_defaults(fn=cmd_suite, out=None, timing=False)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses: built at its first call, not at import,
    then kept for the process (parsing leaves no state in it)."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and print its report (``suite``: its criteria
    lines); returns the exit code.  A budget the search runs out of gives
    verdict ``unknown`` with the full query echo and the nodes spent; an
    input error gives verdict ``error`` with only the command echoed."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    query, engine, error = {"command": args.command}, "", {}
    t0 = time.perf_counter()
    try:
        try:
            if args.command == "suite":
                return cmd_suite(args)
            query, engine, run = args.fn(args)
            t0 = time.perf_counter()
            verdict, witness, nodes = run()
        except BudgetExceededError as exc:
            verdict, witness, nodes = "unknown", None, exc.nodes
        except RamseyError as exc:
            query, engine, nodes = {"command": args.command}, "", 0
            verdict, witness, error = "error", None, {"error": str(exc)}
        ms = (time.perf_counter() - t0) * 1000.0
        stats = {"engine": engine, "nodes": nodes,
                 "time_ms": round(ms, 3) if args.timing else 0.0}
        text = _canonical(dict(error, schema_version=1, query=query,
                               verdict=verdict, witness=witness, stats=stats))
        sys.stdout.write(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    return {"error": 1, "unknown": 2}.get(verdict, 0)


if __name__ == "__main__":
    sys.exit(main())
