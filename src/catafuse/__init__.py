"""Horn clause transformation that fuses fold-based queries into predicates.

Public surface: parse_problem, ConstraintEngine, transform_problem,
transformed_problem, emit_smtlib, solve, check_equisat, run_bench.

These names load on first use (PEP 562), so importing a submodule imports
only what that submodule needs. The bundled oracle and CHC-solver children
(`catafuse.refsolver.oracle` / `catafuse.refsolver.horn`, started without
`site`: see `engine.bundled_cmd`) import only `catafuse.syntax` and
`catafuse.refsolver`, and one of them starts per transform or per solve, so
their start-up is paid every time. For the same reason they import no
`dataclasses`, `inspect` or `typing`: the value classes in `catafuse.syntax`
are generated without `dataclasses`.
"""

from importlib import import_module

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
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
