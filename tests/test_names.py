"""Every top-level function and class of the package, and every public method
or property of its classes, has a caller.

A top-level name counts as called when the package (other than ``__init__``)
or the benchmark harness loads it as a bare name, imports it, or reads it as
an attribute of a package module (``kernel.name``); a field of the same name
does not count.  A method or property (dunder names aside) counts as called
when the package or the harness reads an attribute of its name, on any
object.  Strings count only in ``perfbench/spans.py``, whose
``LAYER_TARGETS`` names the functions the traced runs wrap.  Tests do not
count: code that only tests call has no role in the pipeline.

The packed form of a series (its sorted keys, numerators, denominator, digit
width and the trusted constructors) is read by ``series.py`` alone, and its two
pair loops by ``_sum_of_products`` and ``TruncatedSeries.compose`` alone.
``series.det`` has one reader, ``potential.build_delta0``, and nothing in the
package calls ``TruncatedSeries.invert``, which the benchmark harness still wraps.
One routine differentiates, ``series._derived``, read by ``linear_combination``,
``det`` and ``y_gradient_average`` alone; the phase solve forms each row of its
parts with ``linear_combination``; and ``chsc.py``, the closed-form oracle,
imports nothing from the series module.

The tests' reference algebra (``tests/reference.py``) and oracles (``tests/oracles.py``)
import no private name of the package and read no private attribute, so they share no
loop with the code they check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bergman"
STRING_TABLES = {ROOT / "perfbench" / "spans.py"}


def _sources():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _used_names() -> set:
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    used = set()
    for path in _sources() + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path in STRING_TABLES):
                used.add(node.value)
    return used


def test_every_top_level_definition_has_a_caller():
    used = _used_names()
    unused = [
        f"{path.name}:{node.name}"
        for path in _sources()
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert unused == []


# the packed form of a series: only series.py reads these fields and constructors
SERIES_PRIVATE = {"_keys", "_nums", "_den", "_shift", "_keys_at", "_canonical", "_from_piece",
                  "_store"}


def test_only_series_reads_the_packed_form():
    reads = [
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in _sources() if path.name != "series.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in SERIES_PRIVATE
    ]
    assert reads == []


# the pair loops of series.py and the only functions that read them: every product
# of series or pieces is one _sum_of_products, apart from compose's group sum
PAIR_LOOP_READERS = {
    "_add_products": {"series.py:_sum_of_products", "series.py:TruncatedSeries.compose"},
    "_add_square": {"series.py:_sum_of_products"},
}


def _readers(names) -> dict:
    """Each of ``names`` -> the ``file:scope`` of every package function that reads it as a
    bare name or as an attribute of anything (``series._add_square``, ``s.invert``)."""
    readers = {name: set() for name in names}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, scope + [child.name])
                continue
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name in readers:
                readers[name].add(f"{path.name}:{'.'.join(scope)}")
            visit(child, path, scope)

    for path in _sources():
        visit(ast.parse(path.read_text(), str(path)), path, [])
    return readers


def test_only_the_sum_of_products_and_compose_run_the_pair_loops():
    assert _readers(PAIR_LOOP_READERS) == PAIR_LOOP_READERS


def test_one_determinant_of_series_and_no_series_inverse():
    # Delta0 in (x, y, z) is Delta0 in (x, y, theta) pulled back along theta, so the
    # package divides no series: det is read by build_delta0 alone, and invert by nothing
    assert _readers({"det", "invert"}) == {"det": {"potential.py:build_delta0"}, "invert": set()}


# the one derivative routine of series.py and the only functions that read it
DERIVATIVE_READERS = {"_derived": {"series.py:linear_combination", "series.py:det",
                                   "series.py:y_gradient_average"}}


def test_one_derivative_routine():
    assert _readers(DERIVATIVE_READERS) == DERIVATIVE_READERS


def test_the_phase_solve_forms_each_row_by_one_linear_combination():
    # z_u - (H^-1 theta)_u is one sum of series, not an accumulator of the solve's own
    assert "series.py:_solve_parts" in _readers({"linear_combination"})["linear_combination"]


def test_chsc_closed_forms_import_nothing_from_the_series_module():
    tree = ast.parse((PACKAGE / "chsc.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not {name for name in imported if name and name.split(".")[-1] == "series"}


def _attribute_reads() -> set:
    reads = set()
    for path in _sources() + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path in STRING_TABLES):
                reads.add(node.value)
    return reads


def test_every_public_method_has_a_reader():
    reads = _attribute_reads()
    unread = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in _sources()
        for cls in ast.parse(path.read_text(), str(path)).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in reads
    ]
    assert unread == []


# the test modules that stand apart from the package: the reference algebra and the oracles
INDEPENDENT_TEST_MODULES = [ROOT / "tests" / "reference.py", ROOT / "tests" / "oracles.py"]


def _private_reads(source: str) -> list:
    """The private names a module imports from the package (``from bergman... import _x``)
    and the ``_``-prefixed attributes it reads on anything (``s._keys``), dunders aside."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bergman":
            found += [f"{node.lineno}:import {a.name}" for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            found.append(f"{node.lineno}:.{node.attr}")
    return found


def test_the_reference_and_the_oracles_read_no_private_name():
    # a private name put back is found: the check reads what it must refuse
    assert _private_reads("from bergman.series import TruncatedSeries, _add_products\n"
                          "from bergman import series\nseries._derived(s._keys)\n") == [
        "1:import _add_products", "3:._derived", "3:._keys"]
    assert _private_reads("from bergman.series import TruncatedSeries\ns.coeffs.__len__()\n") == []
    found = {path.name: _private_reads(path.read_text()) for path in INDEPENDENT_TEST_MODULES}
    assert found == {path.name: [] for path in INDEPENDENT_TEST_MODULES}
