"""What the benchmark in aeqbench/ needs from aeq.

Its tracer wraps every function named in ``aeqbench.tracing.TRACED`` in the
aeq module that binds it, and ``PointSet.__post_init__`` for one span per
point-set construction. A rename or a construction that skips the hook
would silently drop a layer from its measurements. This test only reads
aeqbench/.
"""
import importlib
import importlib.util
import pathlib

import aeq
from aeq import PointSet

TRACING = pathlib.Path(__file__).resolve().parents[1] / "aeqbench" / "tracing.py"


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
