"""A small exact packing-program solver over rationals.

Primal simplex with Bland's rule, so it terminates on degenerate problems
and produces identical output on identical input. Floating-point LP
libraries cannot serve here: best responses and equilibrium gaps are
decided by exact equality, and the problems are desk-scale (tens of rows
and up to a few hundred columns), so a textbook tableau is the right tool.

Problems are stated as::

    minimize    c . x
    subject to  A x <= b
                x >= 0

with b >= 0. That is the form of the router's path-packing program,
whose right-hand sides are edge capacities. With b >= 0 the slack basis
is feasible from the start, so the simplex begins there: the reduced
costs start as the costs, since every slack costs 0.

There are two entries to one pivot loop. ``solve_tableau`` takes the
tableau already laid out on ints, unchecked: the router builds its 0/1
path rows, slacks and scaled capacities that way directly, and gets
back only the basic columns with a nonzero value. ``solve_lp`` is the
checked public entry for rows of ``int`` and ``Fraction`` values: it
checks and scales the rows, lays out the same tableau and hands it to
``solve_tableau``.

The tableau is fraction-free (integer-preserving pivots; Edmonds 1967,
Bareiss 1968). Each row is a list of ints that stands for itself divided
by the coefficient of the row's basic variable, which is kept positive.
``solve_lp`` scales each input row to ints once, by the LCM of its
denominators (a row of ints alone is taken as it is, with scale 1);
slack coefficients stay 1, which only rescales the slacks, and the
costs are scaled by the LCM of theirs. A pivot on (r, c), with
p = row_r[c] > 0, replaces every other row i that has a nonzero in
column c by p*row_i - row_i[c]*row_r, so no Fraction is built per entry.
When p > 1 the new row is divided by the gcd of its entries, which keeps
the entries as small as the data allow. When p = 1, as in most pivots
of a 0/1 packing program, the row is kept as it is: nothing was
multiplied, and a common factor is rare. The pivot row's nonzero
columns are listed once per pivot, and the subtraction touches only
those columns: packing programs have mostly-zero rows, and skipping
their zeros changes no entry. The reduced-cost row is kept only up to a
positive factor; the objective is read off the solution.

Scaling a row or a column by a positive factor changes no sign of a
reduced cost and no order among the ratios rhs/coefficient of one column,
and those signs and that order are all Bland's rule reads. So the
entering and leaving choices, the pivot count, the final basis and the
result are those of the same simplex run on a Fraction tableau. The tests
keep that simplex, in its general two-phase form, as the oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .rational import to_integers


class LpResult(NamedTuple):
    status: str  # "optimal" or "unbounded"
    objective: Optional[Fraction]
    solution: Optional[tuple]
    pivots: int  # Bland pivots from the slack basis


_EXACT_TYPES = {int, Fraction}


def _scaled(values) -> tuple:
    """``(scale, ints)``: the values times the LCM of their denominators.
    Each value must be an ``int`` or a ``Fraction`` (not a ``bool``): a
    float would carry its binary rounding error into an exact result. A
    list of ``int`` alone is returned as it is, with scale 1."""
    values = list(values)
    kinds = set(map(type, values))
    if kinds <= {int}:
        return 1, values
    if not kinds <= _EXACT_TYPES:
        bad = next(v for v in values if type(v) not in _EXACT_TYPES)
        raise TypeError(f"LP data must be int or Fraction, got {bad!r}")
    scale, ints = to_integers(values)
    return scale, list(ints)


def solve_lp(minimize: Sequence, eq: Sequence = (), ub: Sequence = ()) -> LpResult:
    """Solve the packing program exactly. ``ub`` is a sequence of
    ``(coefficients, rhs)`` pairs over the same variables as ``minimize``,
    each rhs >= 0. ``eq`` must be empty; it is kept so that callers that
    bind the rows by name, such as the benchmark's tracer, keep working.

    This is the checked entry: it scales the rows to ints, lays out the
    tableau and hands it to ``solve_tableau``."""
    cost_scale, costs = _scaled(minimize)
    rows = [_scaled((*coeffs, rhs))[1] for coeffs, rhs in (*eq, *ub)]
    if eq:
        raise ValueError(f"solve_lp takes no equality rows, got {len(eq)}")
    for _, rhs in ub:
        if rhs < 0:
            raise ValueError(f"right-hand sides must be nonnegative, got {rhs}")

    # Row i: its scaled coefficients, then slack n + i with coefficient 1,
    # then the rhs.
    m = len(rows)
    tableau = []
    for i, row in enumerate(rows):
        slacks = [0] * m
        slacks[i] = 1
        tableau.append(row[:-1] + slacks + row[-1:])
    status, pivots, basic = solve_tableau(costs, tableau)
    if status == "unbounded":
        return LpResult("unbounded", None, None, pivots)

    solution = [Fraction(0)] * len(costs)
    for j, x in basic.items():
        solution[j] = x
    objective = sum((costs[j] * x for j, x in basic.items()), Fraction(0)) / cost_scale
    return LpResult("optimal", objective, tuple(solution), pivots)


def solve_tableau(costs: list, tableau: list) -> tuple:
    """Run Bland's rule on a laid-out fraction-free tableau, unchecked:
    ``(status, pivots, basic)``.

    ``costs`` are the n ints to minimize. Row i of ``tableau`` is a list
    of ints: its n coefficients, then m slack entries that are 1 at
    column n + i and 0 elsewhere, then its rhs >= 0; the rows are pivoted
    in place. ``basic`` maps each variable that ends basic with a nonzero
    value to that value, as a ``Fraction``; every other variable is 0.
    It is None when the program is unbounded."""
    n, m = len(costs), len(tableau)
    basis = list(range(n, n + m))
    reduced = costs + [0] * (m + 1)
    status, pivots = _pivot_until_optimal(tableau, reduced, basis, n + m)
    if status == "unbounded":
        return status, pivots, None
    basic = {b: Fraction(row[-1], row[b]) for row, b in zip(tableau, basis) if b < n and row[-1]}
    return status, pivots, basic


def _pivot_until_optimal(tableau, reduced, basis, width) -> tuple:
    """Bland's rule to optimality or unboundedness: ``(status, pivots)``."""
    pivots = 0
    while True:
        entering = None
        for j in range(width):
            if reduced[j] < 0:
                entering = j  # Bland: lowest improving index
                break
        if entering is None:
            return "optimal", pivots

        # The least ratio rhs/coeff over positive coefficients, ties to the
        # lowest basic index; ratios compare by cross-multiplying.
        leaving = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                if leaving is None:
                    leaving, num, den = i, row[-1], coeff
                    continue
                left, right = row[-1] * den, num * coeff
                if left < right or (left == right and basis[i] < basis[leaving]):
                    leaving, num, den = i, row[-1], coeff
        if leaving is None:
            return "unbounded", pivots
        _pivot(tableau, reduced, basis, leaving, entering)
        pivots += 1


def _pivot(tableau, reduced, basis, row, col) -> None:
    pivot_row = tableau[row]
    p = pivot_row[col]  # > 0: the ratio test takes only positive entries
    # Each other row becomes p*other - factor*pivot_row; the second term
    # touches only the pivot row's nonzero columns.
    nonzero = [(j, a) for j, a in enumerate(pivot_row) if a]
    for r, other in enumerate(tableau):
        factor = other[col]
        if r != row and factor != 0:
            tableau[r] = _eliminate(other, p, factor, nonzero)
    factor = reduced[col]
    if factor != 0:
        reduced[:] = _eliminate(reduced, p, factor, nonzero)
    basis[row] = col


def _eliminate(other: list, p: int, factor: int, nonzero: list) -> list:
    """p*other - factor*pivot_row, divided by the gcd of its entries, with
    the pivot row given by its nonzero ``(column, value)`` pairs. With
    p = 1 it is other - factor*pivot_row, computed in ``other`` itself."""
    if p == 1:
        for j, a in nonzero:
            other[j] -= factor * a
        return other
    new = [p * v for v in other]
    for j, a in nonzero:
        new[j] -= factor * a
    g = math.gcd(*new)
    if g > 1:
        return [v // g for v in new]
    return new
