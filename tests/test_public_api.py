"""The public surface: retired names and modules stay gone, the package
holds no assert statement, and every name that the benchmark and the
scripts import from tropcone still resolves."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Signed tropical polynomials, the signed-scalar algebra and the standalone
# homogenization helpers: no path in the package, the benchmark or the
# scripts used them. The boxed max-plus sum and product and cone and hull
# membership by residuation are test oracles in tests/support.py.
RETIRED = {
    "tropcone": ["hull_member", "cone_member"],
    # A query point is read by `integers_over` alone.
    "tropcone.scalars": [
        "TropPolynomial", "poly_eval_pm", "tsum", "tscale", "sadd", "smul", "SZERO", "tadd", "tmul",
        "rational_or_none",
    ],
    # Validation's `random-reach` check refuses a closed Random component
    # before the absorption solve, so the solve has no singular case.
    "tropcone.errors": ["ArityMismatch", "MixedSigns", "SupportMismatch", "SingularSystem"],
    # A singleton, a union or a stratum is `pencil_from_generators` of its
    # one point, its sets' concatenated generators or its placed generators.
    # A projected pencil lifts a point in integers; the boxed residuation
    # weight is the hull oracle's, in tests/support.py.
    "tropcone.pencil": [
        "formal_homogenize", "dehomogenize", "empty_pencil",
        "pencil_from_point", "union_pencil", "assemble_strata", "_hull_of_pieces",
        "to_trop_vector", "residual_coefficient",
    ],
    # Min-max checks report in a `ValidationReport`; `times` is in scalars.
    # The absorption table is the solve's integer rows, read as they are,
    # and the Max pair rule is in `synthesize_cone`'s loop. A point is
    # scaled by `scalars.integers_over`.
    "tropcone.graph": [
        "StochasticReport", "_times", "_tabulate", "_compliant_pairs", "_absorption_rows",
        "scaled_values", "_scaled_point",
    ],
    # The LP tableau and the absorption solve share `scalars.pivot`, and the
    # LP frontend reads a point by `scalars.finite_integers_over`.
    "tropcone.lp": ["_bareiss", "_point"],
}


@pytest.mark.parametrize("module", RETIRED)
def test_retired_names_are_gone(module):
    names = [n for names in RETIRED.values() for n in names] if module == "tropcone" else RETIRED[module]
    mod = importlib.import_module(module)
    assert [name for name in names if hasattr(mod, name)] == []


def test_exactlin_is_gone():
    # Absorption is solved in integers in tropcone.graph; the Fraction solve
    # is a test oracle in tests/support.py.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("tropcone.exactlin")


def test_convex_is_gone():
    # Hull generators and the lift live in tropcone.pencil; cone and hull
    # membership and the boxed residuation weight are test oracles in
    # tests/support.py.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("tropcone.convex")


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and a check written as one with it.
    paths = sorted((ROOT / "src" / "tropcone").glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_never_calls_vars():
    # A cached property is filled by its own getter; no module reaches into
    # an object's __dict__ to set it.
    paths = sorted((ROOT / "src" / "tropcone").glob("*.py"))
    assert paths
    assert [path.name for path in paths if "vars(" in path.read_text()] == []


# Reading a rational's integer pair, or multiplying its numerator: an
# inline copy of the scaling rule.
SCALING = re.compile(r"as_integer_ratio\(|\.numerator\s*\*|\*\s*\(?[\w.]+\.numerator\b")


def test_only_scalars_turns_rationals_into_integers():
    # `scalars.times`, `scalars.integers_over` and `scalars.sums_to_one` are
    # the one scaling rule.
    paths = sorted((ROOT / "src" / "tropcone").glob("*.py"))
    assert [path.name for path in paths if SCALING.search(path.read_text())] == ["scalars.py"]


@pytest.mark.parametrize(
    "line, copied",
    [
        ("q = p.numerator * (m // p.denominator)", True),
        ("q = p.numerator*k", True),
        ("q = k * p.numerator", True),
        ("q = k * (e.prob.numerator)", True),
        ("a, b = p.as_integer_ratio()", True),
        ("elif p.numerator <= 0:", False),
        ("a, b = q.numerator, q.denominator", False),
    ],
)
def test_scaling_rule_pattern(line, copied):
    assert bool(SCALING.search(line)) is copied


def test_only_scalars_holds_the_integer_rule():
    # `scalars.int_from_json` is the one integer check: no other module
    # tells a bool from an int itself.
    paths = sorted((ROOT / "src" / "tropcone").glob("*.py"))
    assert [path.name for path in paths if "bool)" in path.read_text()] == ["scalars.py"]


def test_only_sized_checks_lengths():
    # `scalars.sized` is the one length check; `lp_max` adds only the range
    # check of its coordinate index.
    paths = sorted((ROOT / "src" / "tropcone").glob("*.py"))
    raising = [path.name for path in paths if "raise DimensionMismatch" in path.read_text()]
    assert raising == ["lp.py", "scalars.py"]


def test_package_imports_are_used():
    # Each name a module imports is read in it; `__init__.py` only re-exports.
    paths = sorted((ROOT / "src" / "tropcone").glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{name}" for name in sorted(imported - used)]
    assert paths and unused == []


def test_projected_pencil_reads_its_dimension_from_gens():
    from tropcone.pencil import ProjectedPencil

    assert not hasattr(ProjectedPencil, "visible")


def test_signed_trop_has_no_zero_constructor():
    from tropcone.scalars import SignedTrop

    assert not hasattr(SignedTrop, "zero")


def test_trop_point_set_has_no_json():
    # No path in the package, the benchmark or the scripts wrote or read a
    # generator set on its own.
    from tropcone.pencil import TropPointSet

    assert not hasattr(TropPointSet, "to_json")
    assert not hasattr(TropPointSet, "from_json")


def test_lp_has_one_solve():
    # The LPs of a piece are solved as their duals on one integer tableau
    # from the basis v, every coordinate after the first warm-started from
    # the last optimal basis: the per-coordinate cold solve and the Fraction
    # pivot are gone.
    from tropcone import lp

    assert hasattr(lp, "_piece_gaps")
    gone = ("_dual_min", "_phase1", "_phase2", "_simplex", "_pivot")
    assert [name for name in gone if hasattr(lp, name)] == []


def test_game_graph_has_one_operator_plan():
    # The operator on T^n of every graph, compliant or not, is evaluated
    # from `operator_plan`.
    from tropcone.graph import GameGraph

    assert hasattr(GameGraph, "operator_plan")
    assert not hasattr(GameGraph, "compliant_plan")


def tropcone_imports(path: Path) -> list:
    """(module, name) for each `from tropcone... import name` in the file,
    at any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module
        and node.module.split(".")[0] == "tropcone"
        for alias in node.names
    ]


CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def test_callers_import_tropcone():
    # Guards the guard: an empty list would pass the next test vacuously.
    assert any(tropcone_imports(path) for path in CALLERS if path.parent.name == "perfbench")
    assert any(tropcone_imports(path) for path in CALLERS if path.parent.name == "scripts")


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_caller_imports_resolve(path):
    missing = []
    for module, name in tropcone_imports(path):
        mod = importlib.import_module(module)
        if name != "*" and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert missing == []
