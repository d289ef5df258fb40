"""What the benchmark in aeqbench/ needs from aeq.

Its tracer wraps every function named in ``aeqbench.tracing.TRACED`` in the
aeq module that binds it, and ``PointSet.__post_init__`` for one span per
point-set construction. A rename or a construction that skips the hook
would silently drop a layer from its measurements. Its other modules read
aeq names directly (``aeq.cli.main``, ``aeq.cli._resolve_threads``, the
construction builders); a name removed from aeq would crash every run.
This test only reads aeqbench/.
"""
import ast
import importlib
import importlib.util
import pathlib

import aeq
from aeq import PointSet

AEQBENCH = pathlib.Path(__file__).resolve().parents[1] / "aeqbench"
TRACING = AEQBENCH / "tracing.py"
# run.py hands the package and its cli module to functions as these parameters
PARAMETERS = {"aeq": "aeq", "cli": "aeq.cli"}


def _tracing():
    spec = importlib.util.spec_from_file_location("aeqbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_module():
    for module, name in _tracing().TRACED:
        assert callable(getattr(importlib.import_module(f"aeq.{module}"), name, None)), (
            f"aeq.{module}.{name}"
        )


def test_every_pointset_construction_runs_post_init_once(rhombus):
    tracer = _tracing().Tracer()
    x = aeq.construct_simplex(4, 3).array
    float_set = PointSet.from_array(x)
    makers = [  # (point sets built, how)
        (1, lambda: PointSet.from_array(x)),
        (1, lambda: PointSet(dim=3, points=x.tolist())),
        (1, lambda: PointSet.exact_rows([[0, 1], [1, 0]])),
        (1, lambda: aeq.load_pointset(aeq.dumps_report(aeq.pointset_to_dict(float_set)))),
        (1, lambda: aeq.load_pointset(aeq.dumps_report(aeq.pointset_to_dict(rhombus)))),
        (1, lambda: aeq.load_pointset_csv("0 0\n1 0\n")),
        (1, lambda: aeq.recenter_to_barycenter(float_set)),
        (1, lambda: aeq.recenter_to_barycenter(rhombus)),
        (2, lambda: aeq.construct_two_simplices(3)),  # its simplex, then the pair
    ]
    tracer.install()
    try:
        for want, make in makers:
            before = len(tracer.spans)
            assert isinstance(make(), PointSet)
            names = [span[0] for span in tracer.spans[before:]]
            assert names.count("geometry.PointSet") == want
    finally:
        tracer.uninstall()


def _dotted(node, roots):
    """The aeq name an attribute chain reads, as "aeq.x.y": the chain on a
    name in roots, or on ``sys.modules["aeq..."]``; else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in roots:
        base = roots[node.id]
    elif (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules"
          and isinstance(node.slice, ast.Constant) and str(node.slice.value).startswith("aeq")):
        base = node.slice.value
    else:
        return None
    return ".".join([base, *reversed(attrs)])


def _aeq_reads(tree) -> set:
    """Every aeq name a module reads through a name bound by ``import aeq``,
    ``from aeq... import``, or a function parameter in PARAMETERS."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "aeq":
                    roots[alias.asname or "aeq"] = alias.name if alias.asname else "aeq"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "aeq":
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    scopes = [(tree, roots)]
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            params = {a.arg: PARAMETERS[a.arg] for a in node.args.args if a.arg in PARAMETERS}
            if params:
                scopes.append((node, {**roots, **params}))
    reads = set()
    for scope, names in scopes:
        for node in ast.walk(scope):
            dotted = _dotted(node, names) if isinstance(node, ast.Attribute) else None
            if dotted:
                reads.add(dotted)
    return reads


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:  # a submodule not imported yet
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def test_every_aeq_name_the_benchmark_reads_resolves():
    reads = set()
    for path in sorted(AEQBENCH.glob("*.py")):
        reads |= _aeq_reads(ast.parse(path.read_text(), str(path)))
    assert {
        "aeq.cli.main",
        "aeq.cli.build_parser",
        "aeq.cli._resolve_threads",
        "aeq.constructions.construct_simplex",
        "aeq.constructions.construct_two_simplices",
        "aeq.constructions.construct_rosenfeld",
        "aeq.geometry.PointSet",
    } <= reads
    assert sorted(name for name in reads if not _resolves(name)) == []
