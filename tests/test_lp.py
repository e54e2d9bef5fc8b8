import itertools
import random
from fractions import Fraction

import pytest

from flowgame.lp import solve_columns, solve_lp

from oracles import dense_solve_columns, fraction_solve_lp

ZERO = Fraction(0)


def solve_square(matrix, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(rhs)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def brute_force_lp(costs, eq, ub):
    """Enumerate basic solutions: every size-n subset of the constraint
    pool (equality rows, inequality rows held at equality, and x_i = 0
    bounds) that forms a nonsingular system is solved, the feasible
    solutions kept, and the best objective taken. Every vertex of a
    bounded region is determined by some such subset, so this is an exact
    optimum oracle whenever box bounds keep the region bounded."""
    n = len(costs)
    pool = []
    for coeffs, rhs in eq:
        pool.append((coeffs, rhs))
    for coeffs, rhs in ub:
        pool.append((coeffs, rhs))
    for i in range(n):
        bound = [ZERO] * n
        bound[i] = Fraction(1)
        pool.append((bound, ZERO))

    best = None
    for rows in itertools.combinations(pool, n):
        matrix = [row[0] for row in rows]
        rhs = [row[1] for row in rows]
        point = solve_square(matrix, rhs)
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        feasible = all(
            sum(c * x for c, x in zip(coeffs, point)) == rhs for coeffs, rhs in eq
        ) and all(
            sum(c * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in ub
        )
        if not feasible:
            continue
        value = sum(c * x for c, x in zip(costs, point))
        if best is None or value < best:
            best = value
    return best


def test_simple_maximization():
    # max 3x + 2y s.t. x + y <= 4, x <= 2  ->  x=2, y=2, value 10
    result = solve_lp([-3, -2], ub=[(([1, 1]), 4), (([1, 0]), 2)])
    assert result.status == "optimal"
    assert -result.objective == 10
    assert result.solution == (Fraction(2), Fraction(2))


# Equality rows and negative right-hand sides are outside solve_lp's
# packing form; they exercise the general two-phase oracle, which
# lp_edge_always_saturated and lp_min_transport_cost rely on.


def test_equality_constraint():
    # min x + 2y s.t. x + y = 3 -> x=3, y=0
    result = fraction_solve_lp([1, 2], eq=[([1, 1], 3)])
    assert result.status == "optimal"
    assert result.objective == 3
    assert result.solution == (Fraction(3), Fraction(0))


def test_fractional_optimum_is_exact():
    # max x + y s.t. 2x + y <= 1, x + 3y <= 2 -> vertex (1/5, 3/5), value 4/5
    result = solve_lp([-1, -1], ub=[([2, 1], 1), ([1, 3], 2)])
    assert result.status == "optimal"
    assert -result.objective == Fraction(4, 5)
    assert result.solution == (Fraction(1, 5), Fraction(3, 5))


def test_infeasible():
    result = fraction_solve_lp([1], eq=[([1], 2), ([1], 3)])
    assert result.status == "infeasible"


def test_infeasible_negative_rhs():
    # x <= -1 with x >= 0 cannot hold
    result = fraction_solve_lp([1], ub=[([1], -1)])
    assert result.status == "infeasible"


def test_unbounded():
    result = solve_lp([-1], ub=())
    assert result.status == "unbounded"


def test_negative_rhs_inequality_feasible():
    # -x <= -2 means x >= 2; minimize x -> 2
    result = fraction_solve_lp([1], ub=[([-1], -2)])
    assert result.status == "optimal"
    assert result.objective == 2


def test_degenerate_vertex():
    # three constraints meet at (1, 0); Bland's rule must not cycle
    result = solve_lp(
        [-1, -1],
        ub=[([1, 1], 1), ([1, 2], 1), ([1, 0], 1)],
    )
    assert result.status == "optimal"
    assert -result.objective == 1
    assert result.pivots == 1


def test_redundant_equalities():
    result = fraction_solve_lp([1, 1], eq=[([1, 1], 2), ([2, 2], 4)])
    assert result.status == "optimal"
    assert result.objective == 2


def test_random_instances_against_vertex_enumeration():
    # the oracle on general programs; solve_lp on those in packing form
    rng = random.Random(20240811)
    solved = packing = 0
    for _ in range(140):
        n = rng.randint(1, 4)
        costs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        eq = []
        if rng.random() < 0.4:
            coeffs = [Fraction(rng.randint(-2, 3)) for _ in range(n)]
            eq.append((coeffs, Fraction(rng.randint(0, 4))))
        ub = []
        for _ in range(rng.randint(0, 3)):
            coeffs = [Fraction(rng.randint(-2, 3)) for _ in range(n)]
            ub.append((coeffs, Fraction(rng.randint(-1, 5))))
        # box bound keeps the region bounded so vertex enumeration is exact
        for i in range(n):
            bound = [ZERO] * n
            bound[i] = Fraction(1)
            ub.append((bound, Fraction(rng.randint(1, 6))))

        result = fraction_solve_lp(costs, eq=eq, ub=ub)
        if not eq and all(rhs >= 0 for _, rhs in ub):
            assert solve_lp(costs, ub=ub) == result
            packing += 1
        expected = brute_force_lp(costs, eq, ub)
        if expected is None:
            assert result.status == "infeasible"
        else:
            assert result.status == "optimal"
            assert result.objective == expected
            # returned point must be feasible and attain the objective
            point = result.solution
            assert all(x >= 0 for x in point)
            for coeffs, rhs in eq:
                assert sum(c * x for c, x in zip(coeffs, point)) == rhs
            for coeffs, rhs in ub:
                assert sum(c * x for c, x in zip(coeffs, point)) <= rhs
            assert sum(c * x for c, x in zip(costs, point)) == expected
            solved += 1
    assert solved > 40  # the sweep must actually exercise optimal cases
    assert packing > 40


def random_packing_lp(rng, cols=12, rows=6):
    """A path-packing program: maximize rational worths over 0/1 columns,
    each in 1-3 capacity rows with rational capacities."""
    matrix = [[0] * cols for _ in range(rows)]
    for j in range(cols):
        for r in rng.sample(range(rows), rng.randint(1, 3)):
            matrix[r][j] = 1
    ub = [(row, Fraction(rng.randint(1, 10), rng.randint(1, 3))) for row in matrix]
    costs = [-Fraction(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(cols)]
    return costs, ub


def test_seeded_packing_program_pivots():
    costs, ub = random_packing_lp(random.Random(0))
    result = solve_lp(costs, ub=ub)
    assert result.status == "optimal"
    assert result.objective == Fraction(-773, 12)
    assert result.pivots == 9


def test_wide_packing_programs_match_fraction_oracle():
    # router-sized programs: 80-150 sparse 0/1 columns over 20-35 rows;
    # whole capacities come as ints, so all-int rows skip scaling while
    # the others are scaled by their denominators
    rng = random.Random(11)
    whole = fractional = 0
    for _ in range(200):
        costs, ub = random_packing_lp(rng, cols=rng.randint(80, 150), rows=rng.randint(20, 35))
        ub = [(row, cap.numerator if cap.denominator == 1 else cap) for row, cap in ub]
        result = solve_lp(costs, ub=ub)
        assert result == fraction_solve_lp(costs, ub=ub)
        assert result.status == "optimal" and result.pivots >= 20
        whole += sum(type(cap) is int for _, cap in ub)
        fractional += sum(type(cap) is Fraction for _, cap in ub)
    assert whole >= 2500 and fractional >= 1500, (whole, fractional)


def random_rational(rng, low, high):
    """A rational in [low, high] over a denominator of 1-5; a plain int
    when it is whole."""
    den = rng.randint(1, 5)
    value = Fraction(rng.randint(low * den, high * den), den)
    return value.numerator if value.denominator == 1 else value


def random_lp(rng):
    """Up to 6 variables and 0-5 inequality rows with coefficients of
    either sign and right-hand sides >= 0, some of them zero."""
    n = rng.randint(1, 6)

    def coeffs():
        return [random_rational(rng, -2, 3) if rng.random() < 0.7 else 0 for _ in range(n)]

    costs = [random_rational(rng, -3, 3) for _ in range(n)]
    ub = [
        (coeffs(), random_rational(rng, 0, 5) if rng.random() < 0.7 else 0)
        for _ in range(rng.randint(0, 5))
    ]
    return costs, ub


def test_integer_simplex_matches_fraction_oracle():
    # the same pivot sequence: equal status, objective, solution and
    # pivot count on every instance
    rng = random.Random(20261018)
    seen = {"optimal": 0, "unbounded": 0}
    degenerate = negative = 0
    for _ in range(5000):
        costs, ub = random_lp(rng)
        result = solve_lp(costs, ub=ub)
        assert result == fraction_solve_lp(costs, ub=ub), (costs, ub)
        seen[result.status] += 1
        if result.status == "optimal" and result.pivots > 0:
            degenerate += any(rhs == 0 for _, rhs in ub)
            negative += any(a < 0 for row, _ in ub for a in row)
    assert min(seen.values()) >= 1500, seen
    assert degenerate >= 800 and negative >= 800, (degenerate, negative)


def random_columns(rng):
    """A program in ``solve_columns`` form: up to 10 columns over up to 7
    rows, with int coefficients of either sign, some columns empty, and
    right-hand sides >= 0, some of them zero."""
    n, m = rng.randint(0, 10), rng.randint(0, 7)
    costs = [rng.randint(-5, 3) for _ in range(n)]
    columns = [
        [(i, rng.choice([-3, -1, 1, 1, 2, 3, 4, 6])) for i in sorted(rng.sample(range(m), k))]
        for k in (min(rng.choice([0, 1, 2, 3, m]), m) for _ in range(n))
    ]
    rhs = [rng.randint(0, 12) if rng.random() < 0.7 else 0 for _ in range(m)]
    return costs, columns, rhs


def test_slack_block_loop_pivots_as_on_the_dense_tableau():
    # solve_columns keeps only each row's multipliers of the input rows
    # and computes a structural entry where a pivot reads it; the dense
    # fraction-free tableau it replaced holds every entry. Both must make
    # the same pivots to the same basis and values.
    rng = random.Random(2027)
    seen = {"optimal": 0, "unbounded": 0}
    scaled = zero_rhs = negative = 0
    for _ in range(2500):
        costs, columns, rhs = random_columns(rng)
        status, pivots, basic, elements = dense_solve_columns(costs, columns, rhs)
        assert solve_columns(costs, columns, rhs) == (status, pivots, basic), (costs, columns, rhs)
        seen[status] += 1
        scaled += sum(p > 1 for p in elements)
        if pivots:
            zero_rhs += 0 in rhs
            negative += any(a < 0 for column in columns for _, a in column)
    assert min(seen.values()) >= 500, seen
    assert scaled >= 1500 and zero_rhs >= 700 and negative >= 800, (scaled, zero_rhs, negative)


@pytest.mark.parametrize(
    "costs,columns,rhs,expected",
    [
        ([], [], [], ("optimal", 0, {})),
        ([], [], [3, 0], ("optimal", 0, {})),
        ([-1, 0, 2], [[], [], []], [], ("unbounded", 0, None)),
        ([0, 2], [[], []], [], ("optimal", 0, {})),
        ([1, -2], [[(0, 1)], [(1, 3)]], [4, 0], ("optimal", 1, {})),
    ],
)
def test_programs_without_rows_or_columns(costs, columns, rhs, expected):
    assert solve_columns(costs, columns, rhs) == expected
    assert dense_solve_columns(costs, columns, rhs)[:3] == expected


@pytest.mark.parametrize(
    "minimize,eq,ub,bad",
    [
        ([0.1], (), [([1], 1)], "0.1"),
        ([1], (), [([1.0], 1)], "1.0"),
        ([1], [([1], 2.5)], (), "2.5"),
        ([1], (), [([1], "1")], "'1'"),
        (["1/2"], (), (), "'1/2'"),
        ([True], (), [([1], 1)], "True"),
        ([1], [([False], 0)], (), "False"),
    ],
)
def test_only_ints_and_fractions_are_accepted(minimize, eq, ub, bad):
    # checked before the form, so a bad equality row is a TypeError too
    with pytest.raises(TypeError) as info:
        solve_lp(minimize, eq=eq, ub=ub)
    message = str(info.value)
    assert message == f"LP data must be int or Fraction, got {bad}"
    assert "\n" not in message


@pytest.mark.parametrize(
    "eq,ub,message",
    [
        ([([1], 2)], (), "solve_lp takes no equality rows, got 1"),
        ([([1], 2), ([2], 4)], [([1], 1)], "solve_lp takes no equality rows, got 2"),
        ((), [([1], -1)], "right-hand sides must be nonnegative, got -1"),
        ((), [([1], 2), ([-1], Fraction(-1, 3))], "right-hand sides must be nonnegative, got -1/3"),
    ],
)
def test_only_packing_programs_are_accepted(eq, ub, message):
    with pytest.raises(ValueError) as info:
        solve_lp([1], eq=eq, ub=ub)
    assert str(info.value) == message
    assert "\n" not in message
