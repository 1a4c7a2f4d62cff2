"""Every public name is used by the package itself, its scripts or its benchmark.

An exported name that only the tests call is library surface with no job in
the program; so is a public module-level function or class of any package
module, and a public method of an exported class.  The names listed below
are the known exceptions; a new unreferenced name or method fails these
tests until it gets a caller, is deleted, or is added here with its reason.  Files are parsed, not imported, and a method counts as called when
any program file reads an attribute of its name.  In the other direction,
the package's modules import from ``ratpoly`` no private name beyond its
integer list arithmetic.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "framedcurves"

#: public names with no caller outside the tests, and why each stays
UNREFERENCED = {
    "reorthonormalize": "a probe target of the benchmark tracer (named as a string)",
}

#: public methods of exported classes with no caller outside the tests, and why each stays
UNREFERENCED_METHODS = {
    "PolynomialCurve.reparametrized": "checks that the type survives an exact reparametrization",
    "PolynomialCurve.linearly_mapped": "checks that the type survives an exact linear map",
}


def _exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _referenced_names(path):
    """Every Name, Attribute and imported name in one source file.

    A script or benchmark file that defines a function or class of some name
    calls its own, so that name does not count for the package's.
    """
    out, defined = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
    return out if path.parent == PACKAGE else out - defined


def _program_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("scripts", "perfbench"):
        files.extend((ROOT / folder).rglob("*.py"))
    return files


def test_every_export_has_a_caller_outside_the_tests():
    referenced = set().union(*(_referenced_names(p) for p in _program_files()))
    assert _exported_names() - referenced == set(UNREFERENCED)


def _module_level_names():
    """Every public function and class defined at the top level of a package module."""
    return {node.name for path in PACKAGE.glob("*.py")
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # also the helpers no __init__ exports: one whose last caller goes is deleted with it
    referenced = set().union(*(_referenced_names(p) for p in _program_files()))
    assert _module_level_names() - referenced == set(UNREFERENCED)


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


#: subcommand flags whose value the program never reads, and why each stays
UNREAD_FLAGS = {
    "threads": "perfbench passes `--threads 1`",
}


def _run_config_fields_read_outside_resolved():
    """(RunConfig fields, field names read as an attribute outside RunConfig.resolved).

    The argparse namespace ``args`` is left out: its attributes are flags,
    which the flag test below covers.
    """
    fields, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = set()
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                fields.update(item.target.id for item in node.body if isinstance(item, ast.AnnAssign))
                skipped.update(id(n) for item in node.body
                               if isinstance(item, ast.FunctionDef) and item.name == "resolved"
                               for n in ast.walk(item))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and id(node) not in skipped
                    and not (isinstance(node.value, ast.Name) and node.value.id == "args"))
    return fields, read


def test_every_config_field_is_read_outside_the_resolved_view():
    # a field that only RunConfig.resolved reads is echoed into reports and
    # changes nothing else: a knob with no effect
    fields, read = _run_config_fields_read_outside_resolved()
    assert fields and fields <= read, f"fields read only by resolved(): {sorted(fields - read)}"


def _flag_dests_and_reads():
    """(dest of every add_argument flag in cli.py, names cli.py reads off ``args``)."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    dests, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "add_argument":
                dest = next((k.value.value for k in node.keywords if k.arg == "dest"), None)
                dests.add(dest or node.args[0].value.lstrip("-").replace("-", "_"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "args"):
            read.add(node.args[1].value)
    return dests, read


def test_every_subcommand_flag_is_read():
    dests, read = _flag_dests_and_reads()
    assert dests - read == set(UNREAD_FLAGS)


#: the private ``ratpoly`` names other package modules may use: the Z[t] list
#: arithmetic of the rank elimination.  Pseudo-division, gcds and root tests
#: stay behind ratpoly's public functions
RATPOLY_PRIVATE_NAMES = {"_u_div", "_u_mul", "_u_sub"}


def test_other_modules_use_only_the_list_arithmetic_of_ratpoly_in_private():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "ratpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "ratpoly":
                used.update(alias.name for alias in node.names if alias.name.startswith("_"))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "ratpoly" and node.attr.startswith("_")):
                used.add(node.attr)
    assert used == RATPOLY_PRIVATE_NAMES


#: the modules outside ``ratpoly`` that read a Poly's integer t-rows and
#: denominator (``.rows``, ``.den``), each with its reason.  There are none:
#: integer columns come from ``ratpoly.columns_at``, and every other reader
#: goes through ``Poly.terms`` and ``Poly.div_monomial_t``
POLY_ROW_READERS = {}


def test_only_the_hot_integer_readers_walk_poly_rows_outside_ratpoly():
    readers = {path.stem for path in PACKAGE.glob("*.py") if path.name != "ratpoly.py" and any(
        isinstance(node, ast.Attribute) and node.attr in ("rows", "den")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert readers == set(POLY_ROW_READERS)
