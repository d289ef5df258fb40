import pathlib
from fractions import Fraction

import numpy as np
import pytest

import aeq

DATA = pathlib.Path(__file__).parent / "data"


def in_one_form(x) -> bool:
    """Whether x holds an exact set's integers in their one form: int64 when
    4 d max|x|^2 < 2^53 (d = x.shape[-1]), else an object array of Python ints."""
    m = max((abs(int(v)) for v in x.flat), default=0)
    if 4 * x.shape[-1] * m * m < 2 ** 53:
        return x.dtype == np.int64
    return x.dtype == object and all(type(v) is int for v in x.flat)


@pytest.fixture(scope="session")
def corpus_path():
    return DATA / "triangle_free_upto8.txt"


@pytest.fixture(scope="session")
def corpus(corpus_path):
    return aeq.read_graph_file(corpus_path)


@pytest.fixture
def rhombus():
    # two unit triangles glued along (1)-(2); non-unit pairs (0,3) and (1,2)
    return aeq.PointSet.exact_rows(
        [[0, 0], [1, 0], [Fraction(3, 5), Fraction(4, 5)], [Fraction(8, 5), Fraction(4, 5)]]
    )


@pytest.fixture
def zigzag():
    # rational unit path 0-1-2 plus 0-3; non-unit pairs (0,2), (1,3), (2,3)
    return aeq.PointSet.exact_rows(
        [[0, 0], [Fraction(3, 5), Fraction(4, 5)], [Fraction(6, 5), 0],
         [Fraction(-3, 5), Fraction(4, 5)]]
    )


@pytest.fixture
def unit_triangle():
    return aeq.PointSet.from_array(
        [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]]
    )
