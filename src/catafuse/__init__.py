"""Horn clause transformation that fuses fold-based queries into predicates.

Public surface: parse_problem, ConstraintEngine, transform_problem,
transformed_problem, emit_smtlib, solve, check_equisat, run_bench.

These names load on first use (PEP 562), so importing a submodule imports
only what that submodule needs. The bundled oracle and CHC-solver children
(`catafuse.refsolver.oracle` / `catafuse.refsolver.horn`, started without
`site`: see `engine.bundled_cmd`) import only `catafuse.syntax` and
`catafuse.refsolver`. A lone `transform`, `solve` or `verify` still waits
for one child's start-up; a process that transforms or solves many problems
mostly does not, as the next oracle child starts while the current one
works, and one solver child serves consecutive solves at one limit. Since
start-up still counts, the children import neither `inspect` nor `typing`:
every record of the package is made by one decorator,
`catafuse.syntax.value_class`, which needs neither, and no module imports
`typing`. Nor do the children import `importlib`, `os` or `tempfile`: their
launcher calls the module's `main(argv)` itself, and this module imports
what it uses only where it is used, which no child reaches.

Every process keeps the package's bytecode in one private cache
(`bytecode_cache`), so that each module is compiled once per source version
even when bytecode writing is off. The bundled children get it as their
`sys.pycache_prefix` from their command. Any other process that imports this
package with bytecode writing off and no prefix of its own reads and writes
the `.pyc` of the package's own modules there (`_use_bytecode_cache`); every
other module it imports is left to the usual import system.
"""

import _thread
import sys

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


_bytecode_dir: str | None = None
_bytecode_lock = _thread.allocate_lock()


def bytecode_cache() -> str:
    """The package's bytecode cache: this user's private directory in the
    temporary directory, made on the first call in this process, or "" when
    it cannot be made or trusted. Sharing it is safe: the import system
    checks each `.pyc` against its source's mtime and size, names it by the
    interpreter's cache tag, keeps it under the source's absolute path and
    writes it atomically."""
    global _bytecode_dir
    with _bytecode_lock:
        if _bytecode_dir is None:
            import os
            import tempfile
            _bytecode_dir = private_dir(os.path.join(
                tempfile.gettempdir(), f"catafuse-{os.getuid()}-bytecode"))
        return _bytecode_dir


def private_dir(path: str) -> str:
    """`path`, made if missing, if it is a directory (not a link) that this
    user owns and no one else may enter; else "". Bytecode from a directory
    that another user could write would run that user's code."""
    import os
    import stat
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return ""
    try:
        st = os.lstat(path)
    except OSError:
        return ""
    if stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() \
            and not st.st_mode & 0o077:
        return path
    return ""


def _use_bytecode_cache() -> None:
    """Makes the package's own modules (`catafuse.*` and
    `catafuse.refsolver.*`) load through a finder of their own for each of
    the two directories, whose source loader reads and writes their `.pyc`
    in `bytecode_cache`. It sets the prefix and turns bytecode writing on
    only while it reads or compiles one of those modules, under a lock, and
    then puts back what this process had. Another thread that compiled a
    module in that moment would see them too; the package imports nothing
    from threads of its own."""
    import os
    here = __path__[0]
    if not os.path.isdir(here):  # a zip archive, say
        return
    cache = bytecode_cache()
    if not cache:
        return
    from importlib.machinery import SOURCE_SUFFIXES, FileFinder, \
        SourceFileLoader
    lock = _thread.RLock()

    class CachedSourceLoader(SourceFileLoader):
        def get_code(self, fullname):
            with lock:
                saved = sys.pycache_prefix, sys.dont_write_bytecode
                sys.pycache_prefix, sys.dont_write_bytecode = cache, False
                try:
                    return super().get_code(fullname)
                finally:
                    sys.pycache_prefix, sys.dont_write_bytecode = saved

    for path in (here, os.path.join(here, "refsolver")):
        sys.path_importer_cache[path] = FileFinder(
            path, (CachedSourceLoader, SOURCE_SUFFIXES))


# A bundled child starts without `site` and gets its prefix from its
# command, so this never runs in one: it would cost the child the imports
# of `os`, `tempfile` and `importlib.machinery`.
if sys.dont_write_bytecode and sys.pycache_prefix is None \
        and not sys.flags.no_site:
    _use_bytecode_cache()
