import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from vep import expr as ex

from _oracles import fd_gradient, one_sided_fd

DIMS = (2, 2, 2)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_abs_plus_one():
    e = ex.parse("abs(xi1)+1", (1, 1, 1))
    assert ex.vars_of(e) == frozenset({("xi", 1)})


def test_parse_subtraction_of_variables():
    e = ex.parse("x1 - z1", (1, 1, 1))
    assert isinstance(e, ex.Sub)
    assert isinstance(e.a, ex.Var) and isinstance(e.b, ex.Var)


def test_parse_sum_of_squares():
    e = ex.parse("xi1^2 + x1^2", (1, 1, 1))
    assert isinstance(e, ex.Add)
    assert isinstance(e.a, ex.Pow) and e.a.power == 2
    assert isinstance(e.b, ex.Pow) and e.b.power == 2


def test_a_leading_minus_binds_looser_than_a_power():
    for text, want in (("-xi1^2", -9.0), ("(-xi1)^2", 9.0), ("-2^2", -4.0), ("x1*-x1", -9.0)):
        assert ex.eval_expr(ex.parse(text, (1, 1, 0)), xi=[3.0], x=[3.0]) == want, text


def test_parse_errors_carry_offsets():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x1 + $", (1, 1, 1))
    assert err.value.offset == 5
    with pytest.raises(ex.ParseError, match="unknown identifier"):
        ex.parse("foo1 + 1", (1, 1, 1))
    with pytest.raises(ex.ParseError, match="index out of range"):
        ex.parse("x3", (1, 2, 1))
    with pytest.raises(ex.ParseError, match="integer exponent"):
        ex.parse("x1^1.5", (1, 1, 1))
    with pytest.raises(ex.ParseError, match="trailing"):
        ex.parse("x1 1", (1, 1, 1))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_golden_values():
    assert ex.eval_expr(ex.parse("abs(xi1)+1", (1, 1, 1)), xi=[0.0]) == 1.0
    assert ex.eval_expr(ex.parse("x1 - z1", (1, 1, 1)), x=[1.0], z=[2.0]) == -1.0
    assert ex.eval_expr(
        ex.parse("xi1^2 + x1^2", (1, 1, 1)), xi=[0.5], x=[1.5]
    ) == 2.5


def test_eval_broadcasts_over_arrays():
    e = ex.parse("x1 - z1", (1, 1, 1))
    x = np.array([0.0, 1.0])[:, None]
    z = np.array([0.0, 1.0, 2.0])[None, :]
    out = ex.eval_expr(e, x=[x], z=[z])
    assert out.shape == (2, 3)
    assert out[1, 2] == -1.0


def test_division_by_near_zero_raises():
    e = ex.parse("1/x1", (0, 1, 0))
    with pytest.raises(ex.EvalError):
        ex.eval_expr(e, x=[1e-15])
    assert ex.eval_expr(e, x=[2.0]) == 0.5


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Const(float(np.round(rng.uniform(0, 9), 3)))
        block = rng.choice(["xi", "x", "z"])
        return ex.Var(block, int(rng.integers(1, 3)))
    kind = rng.integers(0, 9)
    a = _random_tree(rng, depth - 1)
    b = _random_tree(rng, depth - 1)
    return [
        lambda: ex.Add(a, b), lambda: ex.Sub(a, b), lambda: ex.Mul(a, b),
        lambda: ex.Div(a, b), lambda: ex.Min2(a, b), lambda: ex.Max2(a, b),
        lambda: ex.Neg(a), lambda: ex.Abs(a),
        lambda: ex.Pow(a, int(rng.integers(0, 4))),
    ][kind]()


def test_round_trip_on_generated_corpus():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        tree = _random_tree(rng, depth=int(rng.integers(1, 5)))
        assert ex.parse(ex.to_string(tree), DIMS) == tree


@st.composite
def trees(draw):
    base = st.one_of(
        st.floats(min_value=0.0, max_value=9.0, allow_nan=False,
                  allow_infinity=False).map(lambda v: ex.Const(float(v))),
        st.sampled_from([ex.Var("xi", 1), ex.Var("xi", 2), ex.Var("x", 1),
                         ex.Var("x", 2), ex.Var("z", 1), ex.Var("z", 2)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ex.Add(*ab)),
            st.tuples(children, children).map(lambda ab: ex.Sub(*ab)),
            st.tuples(children, children).map(lambda ab: ex.Mul(*ab)),
            st.tuples(children, children).map(lambda ab: ex.Min2(*ab)),
            st.tuples(children, children).map(lambda ab: ex.Max2(*ab)),
            children.map(ex.Neg),
            children.map(ex.Abs),
            st.tuples(children, st.integers(0, 4)).map(lambda bk: ex.Pow(*bk)),
        )

    return draw(st.recursive(base, extend, max_leaves=10))


@given(trees())
@settings(max_examples=120, deadline=None)
def test_round_trip_hypothesis(tree):
    assert ex.parse(ex.to_string(tree), DIMS) == tree


# ---------------------------------------------------------------------------
# branch gradients
# ---------------------------------------------------------------------------

def test_grad_hull_abs_at_kink():
    hull = ex.grad_hull(ex.parse("abs(xi1)", (1, 1, 1)), ([0.0], [0.0], [0.0]), "xi")
    gens = sorted(g[0] for g in hull.generators)
    assert gens == [-1.0, 1.0]


def test_grad_hull_worked_objective():
    e = ex.parse("xi1^2 + x1^2", (1, 1, 0))
    hull = ex.grad_hull(e, ([0.0], [1.0], ()), "xix")
    assert hull.single
    assert np.allclose(hull.generators[0], [0.0, 2.0])


def test_grad_hull_linear_in_x():
    e = ex.parse("x1 - z1", (1, 1, 1))
    hull = ex.grad_hull(e, ([0.3], [-1.2], [0.7]), "x")
    assert hull.single and hull.generators[0][0] == 1.0


def test_grad_hull_matches_fd_at_smooth_points():
    rng = np.random.default_rng(7)
    exprs = [
        ex.parse(s, DIMS)
        for s in ("xi1^2 + x2*z1", "abs(x1) + xi2", "min(x1, z2) + x2^3",
                  "max(xi1, 2*xi2) - z1*z2")
    ]
    checked = 0
    for e in exprs:
        for _ in range(40):
            q = rng.uniform(-2, 2, 6)
            point = (q[:2], q[2:4], q[4:])
            hull = ex.grad_hull(e, point, "xix")
            if not hull.single:
                continue

            def fn(v):
                return float(ex.eval_expr(e, xi=v[:2], x=v[2:4], z=q[4:]))

            g = fd_gradient(fn, q[:4])
            # skip points within FD reach of a kink
            if np.max(np.abs(g - fd_gradient(fn, q[:4], h=5e-7))) > 1e-6:
                continue
            assert np.max(np.abs(hull.generators[0] - g)) <= 1e-5
            checked += 1
    assert checked > 50


def test_kink_generators_are_one_sided_limits():
    # |xi1| at 0 and max of two affine pieces at the crossing
    e_abs = ex.parse("abs(xi1)", (1, 0, 0))
    left, right = one_sided_fd(
        lambda t: float(ex.eval_expr(e_abs, xi=[t])), 0.0
    )
    hull = ex.grad_hull(e_abs, ([0.0], (), ()), "xi")
    assert sorted(g[0] for g in hull.generators) == pytest.approx(
        sorted([left, right]), abs=1e-5
    )
    e_max = ex.parse("max(x1, 3*x1 - 2)", (0, 1, 0))
    hull = ex.grad_hull(e_max, ((), [1.0], ()), "x")
    left, right = one_sided_fd(
        lambda t: float(ex.eval_expr(e_max, x=[t])), 1.0
    )
    assert sorted(g[0] for g in hull.generators) == pytest.approx(
        sorted([left, right]), abs=1e-5
    )


@st.composite
def trees_with_div(draw):
    """``trees`` with division as well; small integer constants make kinks
    (abs at 0, min/max ties) common at the integer points drawn below."""
    base = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(ex.Const),
        st.sampled_from([ex.Var("xi", 1), ex.Var("xi", 2), ex.Var("x", 1),
                         ex.Var("x", 2), ex.Var("z", 1), ex.Var("z", 2)]),
    )

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda ab: ex.Add(*ab)), pairs.map(lambda ab: ex.Sub(*ab)),
            pairs.map(lambda ab: ex.Mul(*ab)), pairs.map(lambda ab: ex.Div(*ab)),
            pairs.map(lambda ab: ex.Min2(*ab)), pairs.map(lambda ab: ex.Max2(*ab)),
            children.map(ex.Neg), children.map(ex.Abs),
            st.tuples(children, st.integers(0, 4)).map(lambda bk: ex.Pow(*bk)),
        )

    return draw(st.recursive(base, extend, max_leaves=10))


_coords = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
                    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))


@given(trees_with_div(), st.lists(st.lists(_coords, min_size=6, max_size=6), min_size=1,
                                  max_size=4), st.sampled_from(["xi", "x", "z"]))
@settings(max_examples=120, deadline=None)
def test_grad_rows_is_grad_hull_first_generator(tree, rows, wrt):
    Q = np.array(rows)
    XI, X, Z = Q[:, :2], Q[:, 2:4], Q[:, 4:]
    try:
        _, G, active = ex.grad_rows(tree, XI, X, Z, wrt)
    except ex.EvalError:
        with pytest.raises(ex.EvalError):
            for point in zip(XI, X, Z):
                ex.grad_hull(tree, point, wrt)
        return
    for g, act, point in zip(G, active, zip(XI, X, Z)):
        # bit for bit, the sign of a zero included
        if act:
            # a masked row is the all-+ selection, whether or not a direction realizes it
            assert g.tobytes() == ex.sign_rows((tree,), point, wrt)[0][0, 0].tobytes()
        else:
            hull = ex.grad_hull(tree, point, wrt)
            assert hull.single and g.tobytes() == hull.generators[0].tobytes()


def test_grad_rows_masks_kinks_and_takes_the_first_branch():
    e = ex.parse("abs(x1) + max(x2, z1)", (0, 2, 1))
    X = np.array([[0.0, 1.0], [-2.0, 1.0], [3.0, 1.0], [1.0, -1.0]])
    Z = np.array([[5.0], [0.0], [1.0], [0.0]])
    vals, G, active = ex.grad_rows(e, np.zeros((4, 0)), X, Z, "x")
    assert vals.tolist() == [5.0, 3.0, 4.0, 1.0]
    assert G.tolist() == [[1.0, 0.0], [-1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    assert active.tolist() == [True, False, True, False]


KINKED = [
    # (expression, point, block, gradients): one switch of sign shared by
    # two nodes, or switches nested, where adding or chaining the branches
    # of each node on its own lists gradients that no direction reaches
    ("abs(x1) - abs(x1)", [0.0] * 6, "x", [[0.0, 0.0]]),
    ("abs(x1) + abs(-x1)", [0.0] * 6, "x", [[2.0, 0.0], [-2.0, 0.0]]),
    ("abs(min(xi1, 0))", [0.0] * 6, "xi", [[-1.0, 0.0], [0.0, 0.0]]),
    ("abs(abs(min(0, x1)))", [0.0] * 6, "x", [[0.0, 0.0], [-1.0, 0.0]]),
]


@pytest.mark.parametrize("text, coords, wrt, want", KINKED)
def test_shared_and_nested_kinks_keep_the_realized_branches(text, coords, wrt, want):
    q = np.array(coords)
    hull = ex.grad_hull(ex.parse(text, DIMS), (q[:2], q[2:4], q[4:]), wrt)
    # equal up to the sign of a zero
    assert [g.tolist() for g in hull.generators] == want


def test_jac_branches_share_one_switch_table():
    dims = (1, 0, 0)
    f = ex.VectorFunc((ex.parse("abs(xi1)", dims), ex.parse("abs(xi1)", dims)), dims)
    jacs = f.jac_branches(([0.0], (), ()), "xi")
    assert [J.tolist() for J in jacs] == [[[1.0], [1.0]], [[-1.0], [-1.0]]]


def test_more_tied_switches_than_the_cap_raise():
    text = " + ".join(["abs(x1)"] * (ex.MAX_TIED_SWITCHES + 1))
    e = ex.parse(text, DIMS)
    with pytest.raises(ex.EvalError, match="11 switches tied"):
        ex.grad_hull(e, ([0.0] * 2, [0.0] * 2, [0.0] * 2), "x")
    # the default row needs no enumeration
    _, G, active = ex.grad_rows(e, np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)), "x")
    assert active.tolist() == [True] and G.tolist() == [[11.0, 0.0]]


def _kinked_examples(test):
    for text, coords, wrt, _ in KINKED:
        test = example(ex.parse(text, DIMS), coords, wrt)(test)
    return test


_BLOCK_COLUMNS = {"xi": [0, 1], "x": [2, 3], "z": [4, 5], "xix": [0, 1, 2, 3]}


@given(trees_with_div(), st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), min_size=6,
                                  max_size=6), st.sampled_from(list(_BLOCK_COLUMNS)))
@_kinked_examples
@settings(max_examples=200, deadline=None)
def test_branches_are_the_sampled_gradient_limits(tree, coords, wrt):
    """Every gradient sampled within 1e-6 of the point, off the masked rows,
    is near a returned branch, and every returned branch is near a sample."""
    q = np.array(coords)
    cols = _BLOCK_COLUMNS[wrt]
    rng = np.random.default_rng(0)
    D = rng.standard_normal((400, len(cols)))
    D *= 1e-6 * rng.uniform(0.5, 1.0, (400, 1)) / np.linalg.norm(D, axis=1, keepdims=True)
    Q = np.repeat(q[None], 400, axis=0)
    Q[:, cols] += D
    try:
        branches = ex.grad_hull(tree, (q[:2], q[2:4], q[4:]), wrt).as_matrix()
        _, G, masked = ex.grad_rows(tree, Q[:, :2], Q[:, 2:4], Q[:, 4:], wrt)
    except ex.EvalError:
        return
    G = G[~masked]
    if not len(G):      # every sample on a kink, as abs(abs(x1^2)) at 0
        return
    tol = 1e-3 * np.maximum(1.0, np.linalg.norm(G, axis=1))
    near = np.linalg.norm(G[:, None] - branches[None], axis=2) <= tol[:, None]
    assert near.any(axis=1).all(), "a sampled gradient is far from every branch"
    assert near.any(axis=0).all(), "a branch that no sample reaches"


def test_grad_hull_at_kink_of_scaled_f_scales():
    e = ex.parse("abs(xi1)", (1, 0, 0))
    e2 = ex.parse("2*abs(xi1)", (1, 0, 0))
    h1 = ex.grad_hull(e, ([0.0], (), ()), "xi")
    h2 = ex.grad_hull(e2, ([0.0], (), ()), "xi")
    assert sorted(g[0] for g in h2.generators) == [
        2 * g for g in sorted(g[0] for g in h1.generators)
    ]


# ---------------------------------------------------------------------------
# vector functions and structure checks
# ---------------------------------------------------------------------------

def test_vectorfunc_validates_indices():
    with pytest.raises(ValueError, match="exceeds dims"):
        ex.VectorFunc((ex.Var("z", 3),), (1, 1, 1))


def test_affine_in_z_checker():
    dims = (1, 1, 2)
    assert ex.is_affine_in(ex.parse("x1 - z1 + 2*z2", dims), "z")
    assert ex.is_affine_in(ex.parse("abs(xi1)", dims), "z")
    assert not ex.is_affine_in(ex.parse("z1^2", dims), "z")
    assert not ex.is_affine_in(ex.parse("z1*z2", dims), "z")
    assert not ex.is_affine_in(ex.parse("abs(z1)", dims), "z")
    assert not ex.is_affine_in(ex.parse("1/z1", dims), "z")
    assert ex.is_affine_in(ex.parse("xi1*z1 - x1", dims), "z")
