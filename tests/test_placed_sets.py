"""Float verify and certify do not depend on where a set is placed.

The benchmark places every construction by a random rotation, translation
and point order (``aeqbench.workloads._place``); axis-aligned constructions
carry exact zeros that placed sets lack. The placed set must give the same
triple verdict and the same certificate counts as the set as built.
"""
import importlib.util
import pathlib

import numpy as np
import pytest

import aeq

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "aeqbench" / "workloads.py"


@pytest.fixture(scope="module")
def place():
    spec = importlib.util.spec_from_file_location("aeqbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._place


BUILDERS = {
    "two_simplices": aeq.construct_two_simplices,
    "rosenfeld": aeq.construct_rosenfeld,
    "simplex": lambda d: aeq.construct_simplex(d + 1, d),
}


def readings(s):
    cert = aeq.certify(s)
    return (aeq.is_almost_equidistant(s).ok, cert.count_eq_one, cert.count_gt_one,
            cert.lemma1_holds)


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("d", range(2, 13))
def test_placed_set_keeps_its_verdict_and_certificate(place, kind, d):
    built = BUILDERS[kind](d)
    want = readings(built)
    assert want[0] and want[3]
    rng = np.random.default_rng(1000 * d + len(kind))
    for _ in range(3):
        placed = aeq.PointSet.from_array(place(built.array, rng))
        assert readings(placed) == want
