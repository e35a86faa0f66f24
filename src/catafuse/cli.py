"""Command line entry point: transform / solve / verify / bench."""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
import time
from pathlib import Path

from .catas import AnalysisError, check_schema
from .engine import ConstraintEngine, OracleError
from .parser import ParseError, parse_problem
from .smtlib import emit_smtlib, functionality_obligation, totality_obligation
from .solver import (SolverConfig, check_equisat, default_solver_cmd,
                     run_bench, solve, write_reports)
from .syntax import PRED_CATA, pretty_clause
from .transform import (TransformError, transform_problem,
                        transformed_problem)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TRANSFORM = 2
EXIT_DISAGREE = 3
EXIT_SOLVER = 4


def build_parser() -> argparse.ArgumentParser:
    def positive(kind):
        def parse(text):
            value = kind(text)
            if not 0 < value < math.inf:  # also refuses nan
                raise argparse.ArgumentTypeError("must be positive and finite")
            return value
        return parse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--solver", help="CHC solver command "
                        "(default: $CHC_SOLVER, then z3, then the bundled one)")
    # a string default goes through type, so CHC_TIMEOUT is checked too
    common.add_argument("--timeout", type=positive(float),
                        default=os.environ.get("CHC_TIMEOUT", "300"),
                        help="per-solve timeout in seconds (default 300)")
    common.add_argument("--max-iters", type=positive(int), default=50,
                        help="definition fixpoint iteration cap (default 50)")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="progress chatter on stderr")

    ap = argparse.ArgumentParser(
        prog="catafuse",
        description="Fuse catamorphism queries into Horn clause predicates "
                    "so CHC solvers can exploit inter-query dependencies.")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", parents=[common],
                       help="rewrite a problem file")
    t.add_argument("input")
    t.add_argument("--out", help="output directory (default: input's)")
    t.add_argument("--emit-obligations", action="store_true",
                   help="also write functionality/totality obligation scripts")

    s = sub.add_parser("solve", parents=[common],
                       help="solve a problem with the CHC solver")
    s.add_argument("input")
    s.add_argument("--transformed", action="store_true",
                   help="transform before solving")

    v = sub.add_parser("verify", parents=[common],
                       help="solve both the original and the transformed "
                            "sets and compare verdicts")
    v.add_argument("input")

    b = sub.add_parser("bench", parents=[common],
                       help="run the benchmark harness on a corpus")
    b.add_argument("corpus")
    b.add_argument("--jobs", type=positive(int), default=1)
    return ap


def _config(args) -> SolverConfig:
    cmd = shlex.split(args.solver) if args.solver else default_solver_cmd()
    return SolverConfig(cmd=cmd, timeout=args.timeout,
                        max_iterations=args.max_iters)


def _load(path: str):
    try:
        return parse_problem(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:  # missing, a directory, not text
        print(f"error: cannot read {path}: "
              f"{getattr(e, 'strerror', None) or e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except (ParseError, AnalysisError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _transform(problem, args):
    engine = ConstraintEngine()
    t0 = time.monotonic()
    try:
        result = transform_problem(problem, engine,
                                   max_iterations=args.max_iters)
    except (AnalysisError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except TransformError as e:
        print(f"transformation failed: {e}", file=sys.stderr)
        raise SystemExit(EXIT_TRANSFORM)
    except OracleError as e:  # a missing or crashed oracle
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_SOLVER)
    finally:
        engine.close()
    if getattr(args, "verbose", False):
        print(f"transformed in {time.monotonic() - t0:.2f}s: "
              f"{len(result.definitions)} definitions in "
              f"{result.iterations} iterations, {len(result.clauses)} clauses, "
              f"{len(result.log.records)} derivation steps", file=sys.stderr)
    return result


def cmd_transform(args) -> int:
    problem = _load(args.input)
    stem = Path(args.input)
    outdir = Path(args.out) if args.out else stem.parent
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file by that name, say
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    result = _transform(problem, args)
    tp = transformed_problem(problem, result)

    surface = outdir / (stem.stem + ".transformed.chc")
    lines = [f"% transformed from {stem.name}: {len(result.clauses)} clauses, "
             f"{result.iterations} fixpoint iterations"]
    for name in sorted(result.new_preds):
        d = result.new_preds[name]
        lines.append(f"pred {name}({', '.join(str(s) for s in d.arg_sorts)}).")
    lines.extend(pretty_clause(c) for c in tp.queries + tp.program)
    smt = outdir / (stem.stem + ".transformed.smt2")
    log = outdir / (stem.stem + ".derivation.log")
    outputs = [(surface, "\n".join(lines) + "\n"), (smt, emit_smtlib(tp)),
               (log, result.log.to_text()),
               (outdir / (stem.stem + ".derivation.jsonl"),
                result.log.to_json())]

    if args.emit_obligations:
        for name, decl in sorted(problem.preds.items()):
            if decl.kind != PRED_CATA:
                continue
            cls, called = [], [name]
            for pred in called:  # grows by the inner catamorphisms, transitively
                schema = check_schema(pred, problem)
                cls += [schema.base_clause, schema.rec_clause]
                called += [p for p in schema.inner_preds if p not in called]
            outputs.append((
                outdir / (stem.stem + f".{name}.functionality.smt2"),
                functionality_obligation(decl, cls, problem.preds,
                                         problem.sorts)))
            outputs.append((
                outdir / (stem.stem + f".{name}.totality.smt2"),
                totality_obligation(decl, cls, problem.preds, problem.sorts)))
    for path, text in outputs:
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as e:  # a directory by that name, say
            print(f"error: cannot write {path}: {e.strerror or e}",
                  file=sys.stderr)
            return EXIT_INPUT
    print(f"wrote {surface.name}, {smt.name}, {log.name}")
    return EXIT_OK


def cmd_solve(args) -> int:
    problem = _load(args.input)
    if args.transformed:
        result = _transform(problem, args)
        problem = transformed_problem(problem, result)
    try:
        res = solve(problem, _config(args))
    except RuntimeError as e:  # a missing or crashed solver
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    print(res.verdict)
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = _load(args.input)
    result = _transform(problem, args)
    tp = transformed_problem(problem, result)
    try:
        verdict, r1, r2 = check_equisat(problem, tp, _config(args))
    except RuntimeError as e:  # a missing or crashed solver
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"{verdict} (original={r1.verdict} in {r1.seconds:.1f}s, "
          f"transformed={r2.verdict} in {r2.seconds:.1f}s)")
    return EXIT_DISAGREE if verdict == "disagree" else EXIT_OK


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        print(f"error: {corpus} is not a directory", file=sys.stderr)
        return EXIT_INPUT
    if not any(corpus.glob("*.chc")):
        print(f"error: no .chc problems in {corpus}", file=sys.stderr)
        return EXIT_INPUT
    report = run_bench(corpus, _config(args), jobs=args.jobs)
    print(report.to_text())
    try:
        txt, csvp = write_reports(report, corpus)
    except OSError as e:  # a directory by that name, say
        print(f"error: cannot write {e.filename}: {e.strerror or e}",
              file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {txt} and {csvp}")
    return EXIT_OK if not report.failures else EXIT_INPUT


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"transform": cmd_transform, "solve": cmd_solve,
               "verify": cmd_verify, "bench": cmd_bench}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
