import ast
import inspect
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ribbonkit"

# Imports kept on purpose although the module never reads them.
ALLOWED = {
    # perfbench/spans.py traces ribbon_nerve through this binding.
    "cli.ribbon_nerve",
}


def test_no_unused_imports():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update(f"{path.stem}.{name}" for name in imported - used)
    assert unused == ALLOWED


def _referenced_names(node) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_no_unreferenced_private_definitions():
    # A module-level _name def or class that nothing outside its own body
    # refers to is dead code, e.g. a helper left behind by a refactor.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    everywhere = sum(map(_referenced_names, trees), Counter())
    private = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    unreferenced = [d.name for d in private if everywhere[d.name] == _referenced_names(d)[d.name]]
    assert len(private) > 0 and unreferenced == []


def test_every_error_class_is_raised():
    # An error class that nothing raises, directly or through a subclass, is
    # a dead entry in the documented exception hierarchy.
    classes = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    live = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                live.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    pending = list(live & classes.keys())
    while pending:
        for base in classes[pending.pop()] & classes.keys():
            if base not in live:
                live.add(base)
                pending.append(base)
    assert len(classes) > 1 and sorted(classes.keys() - live) == []


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_are_stdlib_only():
    # The package runs on the standard library alone; the tests may also use
    # pytest, their shared helpers and the package itself.
    allowed = {
        SRC: sys.stdlib_module_names,
        TESTS: sys.stdlib_module_names | {"pytest", "helpers", "ribbonkit"},
    }
    outside = [
        f"{path.relative_to(TESTS.parent)}: {name}"
        for root, names in allowed.items()
        for path in sorted(root.rglob("*.py"))
        for name in _absolute_imports(path)
        if name not in names
    ]
    assert outside == []


# The public API: a name removed or renamed here is a deliberate, reviewed diff.
PACKAGE_NAMES = """
AxiomReport BettiTriple Bitmap Cell CellComplex CellKind CellMap ComplexDocument EMPTY Filament
FilledCycle Frame Hole NerveCheckReport Orientation PartitionReport Point2 PointLocation Probe
ProbeVector Region RegionLabel Ribbon RibbonComplex RibbonComplexBetti RibbonMembership
RibbonNerve SimplicialComplex Threshold ValidityReport VortexNerve betti_rb betti_rb_vnrv
betti_rbnrv betti_rbnrv_vnrv betti_rbx betti_triple boundary check_axioms classify_region
closure common_witness cubical_betti describe descriptions_match distance_sq dx_intersection
dx_near dx_near_collection filament_retraction_map fixed_cells frame_around gradient_angle
interior is_concentric is_nested make_filled_cycle make_ribbon nerve nerve_theorem_check
orientation parse_document point point_in_polygon probe_registry rasterize render_svg
ribbon_membership ribbon_nerve ribbon_nerves_of_vortex_nerve ribbons_of_vortex_nerve
serialize_document simple_polygon to_fraction validate_cw verify_partition z2_betti
""".split()
# Parameter (name, kind) pairs, which read the same on every supported Python.
GALLERY_FUNCTIONS = {
    name: []
    for name in (
        "filament_ribbon", "five_ribbon_complex", "nerve_space_pair", "sample_documents",
        "shared_vertex_pair", "triple_vortex", "two_hole_ribbon",
    )
}
GALLERY_TUPLES = {
    "FilamentRibbon": ("complex", "ribbon", "filament", "outer_vertex", "inner_vertex"),
    "FiveRibbonComplex": ("complex", "ribbons", "rbx", "junction"),
    "NerveSpace": ("complex", "rbx"),
    "NerveSpacePair": ("left", "right"),
    "SharedVertexPair": ("complex", "lower", "upper", "rbx", "junction"),
    "TripleVortex": ("complex", "nerve"),
    "TwoHoleRibbon": ("complex", "outer", "inner", "ribbon"),
}


def test_public_api_snapshot():
    from ribbonkit import gallery

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(imported) == sorted(PACKAGE_NAMES)
    own = {name: obj for name, obj in vars(gallery).items() if getattr(obj, "__module__", None) == gallery.__name__}
    functions = {
        name: [(p.name, p.kind.name) for p in inspect.signature(obj).parameters.values()]
        for name, obj in own.items()
        if inspect.isfunction(obj) and not name.startswith("_")
    }
    assert functions == GALLERY_FUNCTIONS
    assert {name: obj._fields for name, obj in own.items() if inspect.isclass(obj)} == GALLERY_TUPLES


# The integer helpers of math; the rest of it computes in floats.
MATH_ALLOWED = {"gcd", "lcm", "isqrt", "isfinite", "ceil"}
# fixedpoint's gradient_angle still rounds in floats (ROADMAP item 7), and
# svgrender only draws.
FLOAT_EXEMPT = {"fixedpoint.py", "svgrender.py"}


def _float_uses(path: Path) -> list:
    """Each ``float(`` call and each float function of ``math`` imported by ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float(")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: math.{a.name}" for a in node.names if a.name not in MATH_ALLOWED]
    return found


def test_no_floats_in_the_exact_core():
    # Floats never enter a geometric decision.  An isinstance(..., float)
    # input check is no call of float, so it stays legal.
    found = [use for path in sorted(SRC.glob("*.py")) if path.name not in FLOAT_EXEMPT for use in _float_uses(path)]
    assert found == []
    assert all(_float_uses(SRC / name) for name in FLOAT_EXEMPT)  # the scan sees what it exempts
