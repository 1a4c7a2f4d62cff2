"""Every public name is used by the package itself, its scripts or its benchmark.

An exported name that only the tests call is library surface with no job in
the program; so is a public method of an exported class.  The names listed
below are the known exceptions; a new unreferenced export or method fails
these tests until it gets a caller, is deleted, or is added here with its
reason.  Files are parsed, not imported, and a method counts as called when
any program file reads an attribute of its name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "framedcurves"

#: exported names with no caller outside the tests, and why each stays
UNREFERENCED = {
    "reorthonormalize": "a probe target of the benchmark tracer (named as a string)",
    "consistency_check": "the duality and class-table cross-check (ROADMAP items 1 and 3)",
    "classify_osculating_scan": "scans of diagonal unfoldings for the bifurcation atlas (ROADMAP item 3)",
}

#: public methods of exported classes with no caller outside the tests, and why each stays
UNREFERENCED_METHODS = {
    "Poly.integrate_t": "builds diagonal families from their t-derivatives in the scan tests",
    "PolynomialCurve.reparametrized": "checks that the type survives an exact reparametrization",
    "PolynomialCurve.linearly_mapped": "checks that the type survives an exact linear map",
    "NormalFormFamily.f_tt": "checks that F_tt vanishes on the computed singular locus",
    "FlagCurve.diagonal_orders": "the chart-diagonal orders behind type_from_diagonal_orders (ROADMAP item 3)",
}


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _referenced_names(path):
    """Every Name, Attribute and imported name in one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
    return out


def _program_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        files.extend((ROOT / folder).rglob("*.py"))
    return files


def test_every_export_has_a_caller_outside_the_tests():
    referenced = set().union(*(_referenced_names(p) for p in _program_files()))
    assert _exported_names() - referenced == set(UNREFERENCED)


def _public_methods(names):
    """'Class.method' for every public method of the classes named, over the package."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and node.name in names:
                out.update(f"{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def test_every_public_method_of_an_export_has_a_caller_outside_the_tests():
    referenced = set().union(*(_referenced_names(p) for p in _program_files()))
    methods = _public_methods(_exported_names())
    assert {m for m in methods if m.partition(".")[2] not in referenced} == set(UNREFERENCED_METHODS)
