import ast
import importlib.util
import sys
from pathlib import Path

from ldrestore import tensor as T

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ldrestore"


def imported_roots(tree):
    """Top-level names of every absolute import in a module; relative ones are the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    outside = {
        (f.name, root)
        for f in files
        for root in imported_roots(ast.parse(f.read_text(encoding="utf-8"), filename=str(f)))
        if root not in ALLOWED
    }
    assert not outside, f"imports outside the standard library and numpy: {sorted(outside)}"


def test_every_module_has_a_test_file():
    tests = Path(__file__).resolve().parent
    modules = [f.stem for f in sorted(PACKAGE.glob("*.py")) if f.stem != "__init__"]
    assert modules
    untested = [m for m in modules if not (tests / f"test_{m}.py").is_file()]
    assert not untested, f"modules without a tests/test_<module>.py: {untested}"


def test_library_imports_no_private_name_of_another_module():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    private = [
        (f.name, node.module, alias.name)
        for f in files
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"), filename=str(f)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"library modules import private names of other modules: {private}"


def load_tracer():
    """perfbench/tracer.py as a module, imported from its file without registering it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_finds_every_name_it_wraps():
    # the tracer swaps library functions for timed wrappers by name, so a renamed
    # or deleted one fails here with an AttributeError that names it
    tracer = load_tracer()
    linear = T.linear
    with tracer.Tracer().installed():
        assert T.linear is not linear
    assert T.linear is linear


def test_every_name_the_benchmark_tracer_lists_is_callable_in_the_library():
    # every tensor op and layer function the tracer times by name, all missing
    # ones named at once; a list the tracer no longer keeps reads as empty
    tracer = load_tracer()
    ops = getattr(tracer, "TENSOR_OPS", ()) + getattr(tracer, "OTHER_TENSOR_OPS", ())
    missing = [f"tensor.{op}" for op in ops if not callable(getattr(T, op, None))]
    missing += [name for owner, attr, name in getattr(tracer, "LAYER_FUNCTIONS", ())
                if not callable(getattr(owner, attr, None))]
    assert not missing, f"names the benchmark tracer times but the library lacks: {missing}"
