"""Horn clause transformation that fuses fold-based queries into predicates.

Public surface: parse_problem, ConstraintEngine, transform_problem,
transformed_problem, emit_smtlib, solve, check_equisat, run_bench.

These names load on first use (PEP 562), so importing a submodule imports
only what that submodule needs. The bundled oracle and CHC-solver children
(`catafuse.refsolver.oracle` / `catafuse.refsolver.horn`, started without
`site` and with cached bytecode: see `engine.bundled_cmd`) import only
`catafuse.syntax` and `catafuse.refsolver`. A lone `transform`, `solve` or
`verify` still waits for one child's start-up; a process that transforms or
solves many problems mostly does not, as the next oracle child starts while
the current one works, and one solver child serves consecutive solves at
one limit. Since start-up still counts, the children import no
`dataclasses`, `inspect` or `typing`: the value classes in
`catafuse.syntax` are generated without `dataclasses`. Nor do they import
`importlib`: their launcher calls the module's `main(argv)` itself, and
this module imports `importlib` only when a name is first looked up.
"""

__version__ = "0.1.0"

__all__ = [
    "ConstraintEngine", "SolverConfig", "check_equisat", "emit_smtlib",
    "parse_problem", "run_bench", "solve", "transform_problem",
    "transformed_problem", "__version__",
]

_SUBMODULE = {
    "ConstraintEngine": "engine",
    "SolverConfig": "solver", "check_equisat": "solver",
    "run_bench": "solver", "solve": "solver",
    "emit_smtlib": "smtlib",
    "parse_problem": "parser",
    "transform_problem": "transform", "transformed_problem": "transform",
}


def __getattr__(name: str):
    from importlib import import_module
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
