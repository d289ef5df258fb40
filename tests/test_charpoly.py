from fractions import Fraction

import numpy as np
import pytest

import aeq
from aeq.tdgraph import EXACT_RANK_LIMIT


def charpoly_oracle(a):
    """Faddeev-LeVerrier with the plain triple-loop product over Python ints."""
    n = len(a)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(am[i][i] for i in range(n))
        assert tr % k == 0
        c = -tr // k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def test_charpoly_matches_oracle_on_corpus(corpus):
    assert len(corpus) > 400
    for g in corpus:
        a = g.adjacency().tolist()
        assert aeq.charpoly_int(a) == charpoly_oracle(a)


def test_charpoly_matches_oracle_on_random_symmetric():
    rng = np.random.default_rng(2024)
    for n in range(1, EXACT_RANK_LIMIT + 1):
        for span in (1, 9, 10 ** 6):
            a = rng.integers(-span, span + 1, size=(n, n))
            a = (a + a.T).tolist()
            got = aeq.charpoly_int(a)
            assert got == charpoly_oracle(a)
            assert all(type(c) is int for c in got)


def test_charpoly_2x2():
    # x^2 - 4x + 3 = (x-1)(x-3)
    assert aeq.charpoly_int([[2, 1], [1, 2]]) == [1, -4, 3]


def test_charpoly_k3():
    a = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert aeq.charpoly_int(a) == [1, 0, -3, -2]


def test_charpoly_identity():
    assert aeq.charpoly_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, -3, 3, -1]


def test_charpoly_zero_matrix():
    assert aeq.charpoly_int([[0] * 4 for _ in range(4)]) == [1, 0, 0, 0, 0]


def test_charpoly_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        aeq.charpoly_int([[1, 2, 3], [4, 5, 6]])


def test_square_free_perfect_square():
    # x^2: one factor x with multiplicity 2 (regression for the division
    # step dropping the trailing remainder)
    out = aeq.square_free_decomposition([1, 0, 0])
    assert len(out) == 1
    factor, mult = out[0]
    assert mult == 2
    assert factor == [Fraction(1), Fraction(0)]


def test_square_free_mixed_multiplicities():
    # (x-1)^2 (x+2): squarefree part splits by multiplicity
    p = [1, 0, -3, 2]
    out = aeq.square_free_decomposition(p)
    assert [(f, m) for f, m in out] == [
        ([Fraction(1), Fraction(2)], 1),
        ([Fraction(1), Fraction(-1)], 2),
    ]


def test_square_free_squarefree_input():
    out = aeq.square_free_decomposition([1, -4, 3])
    assert out == [([Fraction(1), Fraction(-4), Fraction(3)], 1)]


def test_eigen_multiplicities_k3():
    a = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    roots = aeq.eigen_multiplicities_exact(a)
    assert len(roots) == 2
    assert roots[0][0] == pytest.approx(2.0) and roots[0][1] == 1
    assert roots[1][0] == pytest.approx(-1.0) and roots[1][1] == 2


def test_eigen_multiplicities_two_disjoint_edges():
    a = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    roots = aeq.eigen_multiplicities_exact(a)
    assert roots[0] == (pytest.approx(1.0), 2)
    assert roots[1] == (pytest.approx(-1.0), 2)


def test_eigen_multiplicities_match_eigvalsh_fuzz():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = rng.integers(-2, 3, size=(n, n))
        a = (a + a.T).tolist()
        roots = aeq.eigen_multiplicities_exact(a)
        assert sum(m for _, m in roots) == n
        expanded = sorted(
            [v for v, m in roots for _ in range(m)], reverse=True
        )
        vals = sorted(np.linalg.eigvalsh(np.array(a, dtype=float)), reverse=True)
        assert np.abs(np.array(expanded) - np.array(vals)).max() < 1e-6
