"""Module boundaries: no module of the package imports another's private
names, and no reference implementation under tests/ (naive_*.py) imports a
private name of the package, so each stays an independent oracle.  No
module rebinds a global either: process-wide state lives in caches.  Floating
point stays inside the rank layer's exact products, and no result is a float.
Every public function or class of the package has a caller in the package,
or a reason to stay in KEEP, and so does every public method or property,
or it stays in METHOD_KEEP.

The two Cartier pipelines, local and rational, check each other, so the
import graph keeps them apart: neither reaches the other's module, the
gate (cartier) or invariants, and local does not reach ratfunc.  The
closed form that the corank is checked against (partition_HA, kappa and
theorem_a_value) lives in invariants, so neither pipeline can import it
either."""

import ast
import random
from pathlib import Path

import pytest

import ascart
from ascart import (GF, cartier_matrix, invariants, local, p_rank_stable, rank, rational,
                    twisted_rank_profile)
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


MODULES = {path.stem for path in SRC.glob("*.py")}  # __init__ is the package


def imported_modules(name: str) -> set[str]:
    """The modules of the package that module name imports, anywhere in its
    code: from .x import y, from . import x, import ascart.x, and their
    absolute forms.  A name taken from the package itself (from . import y
    for a y that is no module, or import ascart) is an import of __init__."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            top, _, rest = (node.module or "").partition(".")
            if node.level:
                module = node.module
            elif top == "ascart":
                module = rest
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name if alias.name in MODULES else "__init__"
                             for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "ascart":
                    found.add(rest.split(".")[0] or "__init__")
    return found & MODULES


def reached(name: str) -> set[str]:
    """The modules of the package that module name imports, directly or
    through other modules of the package."""
    todo, seen = [name], set()
    while todo:
        for module in imported_modules(todo.pop()) - seen:
            seen.add(module)
            todo.append(module)
    return seen


@pytest.mark.parametrize("pipeline, banned", [
    ("local", {"rational", "ratfunc", "invariants", "cartier"}),
    ("rational", {"local", "invariants", "cartier"}),
])
def test_pipelines_reach_no_other_pipeline(pipeline, banned):
    """Each Cartier pipeline shares no code with the other, the gate or the
    rank layer, through any chain of imports (the package's __init__
    reaches them all)."""
    assert "curve" in reached(pipeline)
    assert not reached(pipeline) & banned


def test_ratfunc_is_the_rational_pipelines_arithmetic():
    """The gate reaches both pipelines, and rational is the one module of
    the package, besides __init__, that imports ratfunc."""
    assert reached("cartier") >= {"local", "rational"}
    importers = {name for name in MODULES if "ratfunc" in imported_modules(name)}
    assert importers == {"__init__", "rational"}


def test_closed_form_lives_in_invariants():
    """The closed form is defined in invariants, which neither pipeline may
    reach, and not in curve, which both import; the package re-exports it."""
    closed_form = {"_pivots", "partition_HA", "kappa", "theorem_a_value"}
    assert closed_form <= set(vars(invariants))
    assert not closed_form & set(vars(ascart.curve))
    assert "invariants" not in reached("curve")
    assert (ascart.kappa, ascart.partition_HA) == (invariants.kappa, invariants.partition_HA)


def test_cartier_keeps_its_names():
    """ascart.cartier and the package still give the names the split moved,
    the same objects as the pipeline modules that define them.  support,
    the lift of the local layout's image pattern, is the gate's own, and
    local exports no g x g pattern."""
    from ascart.cartier import PIPELINES, CartierMatrix, cartier_matrix, cartier_poly, support

    assert cartier_poly is rational.cartier_poly
    assert support.__module__ == "ascart.cartier" and not hasattr(local, "support")
    assert PIPELINES == ("rational", "local")
    assert (ascart.CartierMatrix, ascart.cartier_matrix, ascart.cartier_poly) == (
        CartierMatrix, cartier_matrix, cartier_poly)
    assert CartierMatrix.__module__ == cartier_matrix.__module__ == "ascart.cartier"


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
    "FieldElement.trace_to_prime": "timed by perfbench/run.py, patched by perfbench/tracing.py "
                                   "and read by the naive references; zeta reads trace tables",
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
