from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aeq
from aeq import charpoly
from aeq.charpoly import charpoly_stack, lambda2_counts, lambda2_counts_stack, roots_above
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


def _oracle_trim(p):
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _oracle_derivative(p):
    n = len(p) - 1
    if n == 0:
        return [Fraction(0)]
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _oracle_divmod(a, b):
    a = _oracle_trim(a[:])
    b = _oracle_trim(b)
    if len(a) < len(b):
        return [Fraction(0)], a
    q = []
    for _ in range(len(a) - len(b) + 1):
        f = a[0] / b[0]
        q.append(f)
        for i in range(len(b)):
            a[i] -= f * b[i]
        a.pop(0)
    return _oracle_trim(q), (_oracle_trim(a) if a else [Fraction(0)])


def _oracle_gcd(a, b):
    a, b = _oracle_trim(a), _oracle_trim(b)
    while len(b) > 1 or b[0] != 0:
        _, r = _oracle_divmod(a, b)
        a, b = b, r
    return [c / a[0] for c in a]


def _oracle_minus(a, b):
    width = max(len(a), len(b))
    a = [Fraction(0)] * (width - len(a)) + a
    b = [Fraction(0)] * (width - len(b)) + b
    return _oracle_trim([x - y for x, y in zip(a, b)])


def square_free_oracle(p):
    """Yun's algorithm with every polynomial over Fractions: monic gcds by
    Euclid's algorithm and rational long division."""
    p = _oracle_trim([Fraction(c) for c in p])
    if len(p) <= 1:
        return []
    p = [c / p[0] for c in p]
    dp = _oracle_derivative(p)
    g = _oracle_gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    out = []
    w, _ = _oracle_divmod(p, g)
    y, _ = _oracle_divmod(dp, g)
    z = _oracle_minus(y, _oracle_derivative(w))
    i = 1
    while len(w) > 1:
        g_i = _oracle_gcd(w, z)
        if len(g_i) > 1:
            out.append((g_i, i))
        w, _ = _oracle_divmod(w, g_i)
        y, _ = _oracle_divmod(z, g_i)
        z = _oracle_minus(y, _oracle_derivative(w))
        i += 1
    return out


def assert_square_free_matches_oracle(p):
    got = aeq.square_free_decomposition(p)
    assert got == square_free_oracle(p)
    assert all(type(c) is Fraction for factor, _ in got for c in factor)
    assert all(factor[0] == 1 for factor, _ in got)


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


def test_square_free_matches_oracle_on_corpus(corpus):
    polys = [aeq.charpoly_int(g.adjacency().tolist()) for g in corpus]
    assert len(polys) == 582
    for p in polys:
        assert_square_free_matches_oracle(p)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# (x - k)^m, and irreducible quadratics x^2 + a x + b with a^2 < 4b
_linear_powers = st.tuples(st.integers(-5, 5), st.integers(1, 4)).map(
    lambda km: ([1, -km[0]], km[1]))
_quadratic_powers = st.tuples(st.integers(-4, 4), st.integers(1, 9), st.integers(1, 3)).filter(
    lambda abm: abm[0] ** 2 < 4 * abm[1]).map(lambda abm: ([1, abm[0], abm[1]], abm[2]))


@settings(max_examples=120, deadline=None, database=None)
@given(
    factors=st.lists(st.one_of(_linear_powers, _quadratic_powers), min_size=1, max_size=5),
    lead=st.sampled_from([1, -1, 3, Fraction(2, 7), Fraction(-5, 3)]),
)
def test_square_free_matches_oracle_on_products(factors, lead):
    p = [1]
    for f, m in factors:
        for _ in range(m):
            p = _times(p, f)
    assert_square_free_matches_oracle(p)
    assert_square_free_matches_oracle([lead * c for c in p])
    # x -> x / 6: rational coefficients whose denominators grow with the degree
    assert_square_free_matches_oracle([Fraction(c, 6 ** i) for i, c in enumerate(p)])


@pytest.mark.parametrize("p", [
    [2, 0], [4, -4, 1], [Fraction(1, 2), 0, -2], [0], [5], [], [0, 0, 3, 6], [3, 0, 0, 0],
    [Fraction(3, 7), Fraction(-1, 3), Fraction(5, 11), 2], [Fraction(1, 4), -1, 1],
    [1.5, -3.0, 1.5], ["1/2", "-1", "1/2"],
])
def test_square_free_matches_oracle_on_rational_and_non_monic_input(p):
    assert_square_free_matches_oracle(p)


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


def test_charpoly_stack_matches_charpoly_int_on_corpus(corpus):
    for n in sorted({g.n for g in corpus}):
        stack = np.array([g.adjacency() for g in corpus if g.n == n])
        assert charpoly_stack(stack) == [aeq.charpoly_int(a.tolist()) for a in stack], n


def _count_charpoly_int(monkeypatch):
    calls = []
    exact = charpoly.charpoly_int

    def counted(a):
        calls.append(len(a))
        return exact(a)

    monkeypatch.setattr(charpoly, "charpoly_int", counted)
    return calls


@pytest.mark.parametrize("n, span, count", [(5, 2 ** 40, 3), (12, 10 ** 4, 2)])
def test_charpoly_stack_falls_back_where_int64_bound_fails(monkeypatch, n, span, count):
    # int64 would wrap: A @ A has entries near n 2**80, and a 12 x 12 matrix
    # with entries near 1e4 has a determinant near 1e48
    rng = np.random.default_rng(n)
    big = rng.integers(span - 9, span + 1, size=(count, n, n))
    big = big + big.transpose(0, 2, 1)
    small = np.array([np.eye(n, k=1, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)])
    stack = np.concatenate([small, big, small])
    want = [charpoly_oracle(a.tolist()) for a in stack]
    calls = _count_charpoly_int(monkeypatch)
    assert charpoly_stack(stack) == want
    assert calls == [n] * count  # only the big matrices left the int64 stack


def test_charpoly_stack_edge_shapes_and_dtypes():
    assert charpoly_stack(np.zeros((0, 3, 3), dtype=np.int64)) == []
    assert charpoly_stack(np.zeros((2, 0, 0), dtype=np.int64)) == [[1], [1]]
    assert charpoly_stack(np.ones((1, 2, 2), dtype=bool)) == [[1, -2, 0]]
    with pytest.raises(ValueError, match="integers"):
        charpoly_stack(np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="shape"):
        charpoly_stack(np.zeros((2, 3), dtype=np.int64))


_dyadic = st.builds(lambda u, t: Fraction(u, 2 ** t), st.integers(-40, 40), st.integers(0, 4))
_non_dyadic = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([3, 5, 7, 12]))


@settings(max_examples=80, deadline=None, database=None)
@given(
    roots=st.lists(st.tuples(st.one_of(_dyadic, _non_dyadic), st.integers(1, 3)),
                   min_size=1, max_size=6),
    lead=st.sampled_from([1, -1, 6]),
    s=st.integers(0, 6),
    data=st.data(),
)
def test_roots_above_matches_brute_force(roots, lead, s, data):
    p = [lead]
    for r, m in roots:
        for _ in range(m):
            p = _times(p, [r.denominator, -r.numerator])
    # a grid point, or one that sits exactly on a root (not counted: the
    # count is of roots strictly above)
    on_root = [int(r * 2 ** s) for r, _ in roots if (r * 2 ** s).denominator == 1]
    a = data.draw(st.one_of(st.integers(-50 * 2 ** s, 50 * 2 ** s),
                            *([st.sampled_from(on_root)] if on_root else [])))
    assert roots_above(p, a, s) == sum(m for r, m in roots if r > Fraction(a, 2 ** s))


def _wilkinson(n):
    m = n // 2
    return (np.diag(np.abs(np.arange(n) - m)) + np.eye(n, k=1, dtype=np.int64)
            + np.eye(n, k=-1, dtype=np.int64))


@pytest.mark.parametrize("copies", [1, 2])
def test_eigen_multiplicities_exact_on_wilkinson_w15(copies):
    # np.roots returns the close top pair of W15 with imaginary parts up to
    # about 3e-4; their real parts are the eigenvalues
    a = np.kron(np.eye(copies, dtype=np.int64), _wilkinson(15))
    roots = aeq.eigen_multiplicities_exact(a.tolist())
    assert len(roots) == 15 and {m for _, m in roots} == {copies}
    expanded = [v for v, m in roots for _ in range(m)]
    assert np.allclose(expanded, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e-3)


def test_eigen_multiplicities_exact_rejects_an_asymmetric_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        aeq.eigen_multiplicities_exact([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        aeq.eigen_multiplicities_exact([[1, 0, 0], [0, 1, 0], [0, 1, 1]])


def test_lambda2_counts_narrows_widens_and_gives_up():
    # Wilkinson's W15: lambda1 - lambda2 is about 4e-8, inside the first
    # 2e-6 interval (np.roots, in eigen_multiplicities_exact, splits this
    # pair into complex roots). A tridiagonal matrix with a nonzero
    # off-diagonal has simple eigenvalues; two copies make each double.
    w = _wilkinson(15)
    for a, mult in ((w, 1), (np.kron(np.eye(2, dtype=np.int64), w), 2)):
        p = aeq.charpoly_int(a.tolist())
        hint = np.linalg.eigvalsh(a)[-2]
        assert lambda2_counts(p, hint) == (True, mult)
        assert lambda2_counts(p, hint + 1e-4) == (True, mult)  # a poor hint: wider
        with pytest.raises(ArithmeticError, match="cannot isolate"):
            lambda2_counts(p, hint + 3.0)
    # (x - 3)(x - 2)^2(x + 5) with a hint 0.6 off: the widest interval (1, 3]
    # holds 3 and the double root 2, and one halving keeps (1, 2]
    p = _times(_times([1, -3], [1, -4, 4]), [1, 5])
    assert lambda2_counts(p, 2.6) == (True, 2)
    assert lambda2_counts(_times([1, -1], [1, 2, 1]), -1.0) == (False, 2)


# ---------------------------------------- root counts of a stack of polynomials


def _polys_and_hints(stack):
    """The characteristic polynomials of a stack, and eigvalsh's lambda2 of
    each as its hint, as ``rank_stack`` passes them."""
    return charpoly_stack(stack), np.linalg.eigvalsh(stack)[:, -2].tolist()


def _scalar_counts(polys, hints):
    return [lambda2_counts(p, h) for p, h in zip(polys, hints)]


def _count_scalar_calls(monkeypatch):
    calls = []
    scalar = charpoly.lambda2_counts

    def counted(p, hint):
        calls.append(hint)
        return scalar(p, hint)

    monkeypatch.setattr(charpoly, "lambda2_counts", counted)
    return calls


def test_lambda2_counts_stack_matches_lambda2_counts_on_corpus(corpus, monkeypatch):
    calls = _count_scalar_calls(monkeypatch)
    for n in range(2, 9):
        polys, hints = _polys_and_hints(np.array([g.adjacency() for g in corpus if g.n == n]))
        assert lambda2_counts_stack(polys, hints) == _scalar_counts(polys, hints), n
    assert calls == []  # every first interval isolates lambda2


@settings(max_examples=40, deadline=None, database=None)
@given(copies=st.sampled_from([1, 1, 2, 3]), data=st.data())
def test_lambda2_counts_stack_matches_lambda2_counts_on_random_symmetric(copies, data):
    # block copies repeat every eigenvalue, lambda2 too
    m = data.draw(st.integers(2 if copies == 1 else 1, EXACT_RANK_LIMIT // copies))
    span = data.draw(st.sampled_from([1, 3, 40]))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    blocks = rng.integers(-span, span + 1, size=(data.draw(st.integers(1, 6)), m, m))
    blocks = np.triu(blocks) + np.triu(blocks, 1).transpose(0, 2, 1)
    stack = np.array([np.kron(np.eye(copies, dtype=np.int64), b) for b in blocks])
    polys, hints = _polys_and_hints(stack)
    assert lambda2_counts_stack(polys, hints) == _scalar_counts(polys, hints)


def _close_pair(t):
    """[[t, 1], [1, -t]] beside [t] twice: lambda1 = sqrt(t^2 + 1), about
    t + 1 / (2t), and lambda2 = t, double."""
    a = np.diag([t, -t, t, t])
    a[0, 1] = a[1, 0] = 1
    return a


def test_lambda2_counts_stack_bisects_past_the_first_interval(monkeypatch):
    # lambda1 - lambda2 is about 2^-21, inside the first interval, 2^-19 wide:
    # the completion halves it from the stacked counts until lambda1 leaves
    seen = []
    counts = charpoly.roots_above
    monkeypatch.setattr(charpoly, "roots_above", lambda p, a, s=0: seen.append(s) or counts(p, a, s))
    calls = _count_scalar_calls(monkeypatch)
    stack = np.array([_close_pair(2 ** 20), _close_pair(3), np.eye(4, dtype=np.int64)])
    polys, hints = _polys_and_hints(stack)
    got = lambda2_counts_stack(polys, hints)
    assert (calls, got) == ([], [(True, 2), (True, 2), (True, 4)])
    assert max(seen) > 20
    assert got == _scalar_counts(polys, hints)


def test_lambda2_counts_stack_widens_a_poor_hint_and_raises_as_the_scalar_does(monkeypatch):
    w = _wilkinson(11)
    double = np.zeros_like(w)  # W5 twice, and a zero row and column
    double[:10, :10] = np.kron(np.eye(2, dtype=np.int64), _wilkinson(5))
    stack = np.array([w, double, w + np.eye(11, dtype=np.int64), w])
    polys, hints = _polys_and_hints(stack)
    calls = _count_scalar_calls(monkeypatch)
    # outside the first interval, above both top roots or between them: widened
    top = np.linalg.eigvalsh(w)[-2:].mean()
    poor = [hints[0], hints[1] + 1e-4, hints[2], top]
    assert lambda2_counts_stack(polys, poor) == [(True, 1), (True, 2), (True, 1), (True, 1)]
    assert calls == [poor[1], poor[3]]
    # the hints place intervals only; the counts do not move with them
    jitter = [h + d for h, d in zip(hints, (1e-9, -1e-9, 3e-8, -3e-8))]
    assert lambda2_counts_stack(polys, jitter) == _scalar_counts(polys, hints)
    # rows raise in order: the first bad hint names itself, as the scalar call does
    bad = [hints[0], hints[1] + 3.0, hints[2] - 3.0, hints[3]]
    with pytest.raises(ArithmeticError) as scalar:
        lambda2_counts(polys[1], bad[1])
    with pytest.raises(ArithmeticError) as stacked:
        lambda2_counts_stack(polys, bad)
    assert str(stacked.value) == str(scalar.value)
    assert "cannot isolate the second largest root near" in str(scalar.value)


def test_lambda2_counts_stack_of_no_rows_and_of_python_int_rows():
    assert lambda2_counts_stack([], []) == []
    # entries near 2^40 send the characteristic polynomial past int64
    a = _close_pair(2 ** 40)
    polys, hints = _polys_and_hints(a[None])
    assert max(map(abs, polys[0])) > 2 ** 63
    assert lambda2_counts_stack(polys, hints) == _scalar_counts(polys, hints) == [(True, 2)]
