"""Module boundaries: no module of the package imports another's private
names, and no reference implementation under tests/ (naive_*.py) imports a
private name of the package, so each stays an independent oracle.  No
module rebinds a global either: process-wide state lives in caches.  Floating
point stays inside the rank layer's exact products, and no result is a float.
Every public function or class of the package has a caller in the package,
or a reason to stay in KEEP, and so does every public method or property,
or it stays in METHOD_KEEP."""

import ast
import random
from pathlib import Path

import pytest

from ascart import GF, cartier_matrix, p_rank_stable, rank, twisted_rank_profile
from ascart.sweep import random_curve

from conftest import curve

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ascart"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("naive_*.py")),
                         ids=lambda path: path.name)
def test_no_private_import_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"line {node.lineno}: {node.module or '.'} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ascart")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rebound = [f"line {node.lineno}: global {', '.join(node.names)}"
               for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert not rebound


FLOAT_NAMES = {"float", "float16", "float32", "float64", "float128", "double", "longdouble", "fmod"}


def float_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value  # a dtype given by name
        else:
            continue
        if name in FLOAT_NAMES:
            yield f"line {node.lineno}: {name}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_floats_only_in_invariants(path):
    """invariants' products are float64, exact below 2^53; nothing else in
    the package names a float type or fmod."""
    used = list(float_names(ast.parse(path.read_text(encoding="utf-8"))))
    if path.name == "invariants.py":
        assert used
    else:
        assert not used


@pytest.mark.parametrize("spec", [
    curve(7, [0, 0, 0, 1]),
    curve(5, [0, 1]),  # g = 0
    random_curve(GF(13), (4, 3), random.Random(1)),
    random_curve(GF(5, 2), (4, 2), random.Random(2)),
], ids=["p7", "g0", "gf13", "gf25"])
def test_ranks_are_python_ints(spec):
    M = cartier_matrix(spec)
    results = [rank(M), p_rank_stable(M), *twisted_rank_profile(M)]
    assert [type(r) for r in results] == [int] * len(results)


# Public module-level names that no other code of the package refers to,
# each with the reason it stays
KEEP = {
    "basis": "perfbench/tracing.py spans ascart.curve.basis by name; the traced run needs it",
    "count_points": "the README's scalar count N_s, spanned by the benchmark's traced run",
    "a_monomial_remark": "the a-number of y^p - y = x^d for p != 1 mod d (ROADMAP item 8)",
}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound_names(scope):
    """The names a def or lambda binds itself, as a parameter or by
    assignment; a nested def's bindings are its own."""
    args = scope.args
    names = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def read_names(node, bound=frozenset()):
    """The names node reads (Load context) that the innermost def around
    each read does not bind."""
    if isinstance(node, SCOPES):
        bound = bound_names(node)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from read_names(child, bound)


def test_every_public_name_has_a_caller():
    """A public module-level def or class of src/ascart (outside __init__,
    whose re-exports do not count) is read by code outside its own
    definition, or listed in KEEP: a name only tests reach belongs in
    tests/.  A field, a parameter or a local of the same name is no
    caller."""
    defined, named = {}, []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defined[top.name] = top
            named.extend((name, top) for name in read_names(top))
    uncalled = {name for name, top in defined.items()
                if not any(n == name and where is not top for n, where in named)}
    assert uncalled == set(KEEP)


# Public methods and properties, as Class.name, that no code of the package
# names as an attribute, each with the reason it stays
METHOD_KEEP = {
    "CartierMatrix.from_json": "the hardened input route for `ascart matrix --json` output",
    "Field.elements": "the whole field, which the naive references enumerate",
    "FieldElement.pth_root": "timed by perfbench/run.py and patched by perfbench/tracing.py",
    "Poly.coeff": "an element view of the naive references, held until ROADMAP item 10",
    "Poly.divmod_linear": "an element view of the naive references, held until ROADMAP item 10",
    "Poly.taylor": "an element view of the naive references, held until ROADMAP item 10",
}


def test_every_public_method_has_a_caller():
    """A public method or property of a class of src/ascart is named as an
    attribute (obj.name) by code of the package outside its own definition,
    or listed in METHOD_KEEP.

    Limits: dunders are not checked, since operators and protocols call them
    without naming them; and names match by text only, so an attribute of
    any object that shares a method's name counts as its caller."""
    defined, attributes = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defined.update((f"{cls.name}.{node.name}", node) for node in cls.body
                               if isinstance(node, ast.FunctionDef)
                               and not node.name.startswith("_"))
        attributes.extend(node for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    uncalled = set()
    for key, method in defined.items():
        own = set(map(id, ast.walk(method)))
        if not any(node.attr == method.name and id(node) not in own for node in attributes):
            uncalled.add(key)
    assert uncalled == set(METHOD_KEEP)
