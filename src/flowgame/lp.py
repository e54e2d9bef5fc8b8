"""A small exact packing-program solver over rationals.

Primal simplex with Bland's rule, so it terminates on degenerate problems
and produces identical output on identical input. Floating-point LP
libraries cannot serve here: best responses and equilibrium gaps are
decided by exact equality, and the problems are desk-scale (tens of rows
and up to a few hundred columns).

Problems are stated as::

    minimize    c . x
    subject to  A x <= b
                x >= 0

with b >= 0. That is the form of the router's path-packing program,
whose right-hand sides are edge capacities. With b >= 0 the slack basis
is feasible from the start, so the simplex begins there: the reduced
costs start as the costs, since every slack costs 0.

There are two entries to one pivot loop. ``solve_columns`` takes the
program by its columns on ints, unchecked: each structural column is the
list of its nonzero ``(row, coefficient)`` pairs. The router hands over
its paths that way, each path's edge rows with coefficient 1, and gets
back only the basic columns with a nonzero value. ``solve_lp`` is the
checked public entry for rows of ``int`` and ``Fraction`` values: it
checks and scales the rows, turns them into columns and hands them to
``solve_columns``.

The loop is the revised simplex (Dantzig and Orchard-Hays, 1954) on
fraction-free rows (Edmonds 1967, Bareiss 1968). Every row of the
tableau is an integer combination of the input rows, and since the slack
columns start as the identity, the row's slack entries are exactly the
multipliers of that combination. So the loop keeps only that slack
block: for each row, its multipliers as a sparse map from input row to
int, and its int right-hand side. A structural entry of the row is the
sum of its multipliers times the column's coefficients, and the loop
computes it only where a pivot reads it: the entering column, the pivot
row's entries for the reduced-cost update (through each input row's list
of columns), and the basic columns at the end. An index from each input
row to the rows whose multipliers use it makes the entering column a sum
over the few rows that can be nonzero. The reduced-cost row is kept in
full; its slack part is the row duals, negated and scaled.

Each row stands for itself divided by the coefficient of the row's basic
variable, which is kept positive. ``solve_lp`` scales each input row to
ints once, by the LCM of its denominators (a row of ints alone is taken
as it is, with scale 1); slack coefficients stay 1, which only rescales
the slacks, and the costs are scaled by the LCM of theirs. A pivot on
(r, c), with p = the row r entry of column c > 0, replaces every other
row i whose column-c entry f is nonzero by p*row_i - f*row_r, on the
multipliers and the right-hand side. When p > 1 the new row is divided
by the gcd of its multipliers: its structural entries and its
right-hand side are integer combinations of them, so that is the gcd of
the whole tableau row, and the entries stay as small as the data
allow. When p = 1, as in most pivots of a 0/1 packing program, the row
is kept as it is: nothing was multiplied, and a common factor is rare.
The reduced-cost row is kept only up to a positive factor; the
objective is read off the solution.

Scaling a row or a column by a positive factor changes no sign of a
reduced cost and no order among the ratios rhs/coefficient of one column,
and those signs and that order are all Bland's rule reads. So the
entering and leaving choices, the pivot count, the final basis and the
result are those of the same simplex run on a Fraction tableau. The tests
keep that simplex, in its general two-phase form, as the oracle, and the
dense fraction-free tableau this loop replaced as a second one.
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

    This is the checked entry: it scales the rows to ints, turns them
    into columns and hands them to ``solve_columns``."""
    cost_scale, costs = _scaled(minimize)
    rows = [_scaled((*coeffs, rhs))[1] for coeffs, rhs in (*eq, *ub)]
    if eq:
        raise ValueError(f"solve_lp takes no equality rows, got {len(eq)}")
    for _, rhs in ub:
        if rhs < 0:
            raise ValueError(f"right-hand sides must be nonnegative, got {rhs}")

    columns = [[] for _ in costs]
    for i, row in enumerate(rows):
        for j, a in enumerate(row[:-1]):
            if a:
                columns[j].append((i, a))
    status, pivots, basic = solve_columns(costs, columns, [row[-1] for row in rows])
    if status == "unbounded":
        return LpResult("unbounded", None, None, pivots)

    solution = [Fraction(0)] * len(costs)
    for j, x in basic.items():
        solution[j] = x
    objective = sum((costs[j] * x for j, x in basic.items()), Fraction(0)) / cost_scale
    return LpResult("optimal", objective, tuple(solution), pivots)


def solve_columns(costs: list, columns: list, rhs: list) -> tuple:
    """Run Bland's rule from the slack basis, unchecked: ``(status,
    pivots, basic)``.

    ``costs`` are the n ints to minimize, and ``columns[j]`` lists
    column j's nonzero entries as ``(row, int coefficient)`` pairs, one
    per row. ``rhs`` holds the m ints >= 0 of the rows. Slack column
    n + i is 1 in row i. ``basic`` maps each structural column that ends
    basic with a nonzero value to that value, as a ``Fraction``, in row
    order; every other variable is 0. It is None when the program is
    unbounded."""
    n, m = len(costs), len(rhs)
    rhs = list(rhs)
    # Row i's multipliers of the input rows: its slack block, sparse.
    ops = [{i: 1} for i in range(m)]
    # users[k]: the rows whose multipliers use input row k.
    users = [{i} for i in range(m)]
    # by_row[k]: input row k's structural columns, grouped by coefficient.
    by_row = [{} for _ in range(m)]
    for j, column in enumerate(columns):
        for k, a in column:
            by_row[k].setdefault(a, []).append(j)
    reduced = [*costs, *[0] * m]
    basis = list(range(n, n + m))
    pivots = 0
    while True:
        # Bland: the lowest improving index enters.
        for entering, d in enumerate(reduced):
            if d < 0:
                break
        else:
            break
        if entering < n:
            entries = {}
            for k, a in columns[entering]:
                for i in users[k]:
                    entries[i] = entries.get(i, 0) + a * ops[i][k]
        else:
            k = entering - n
            entries = {i: ops[i][k] for i in users[k]}

        # The least ratio rhs/coeff over positive coefficients, ties to the
        # lowest basic index; ratios compare by cross-multiplying. The
        # least (ratio, basic index) is unique, so the rows' order is free.
        leaving = None
        for i, coeff in entries.items():
            if coeff > 0:
                if leaving is None:
                    leaving, num, den = i, rhs[i], coeff
                    continue
                left, right = rhs[i] * den, num * coeff
                if left < right or (left == right and basis[i] < basis[leaving]):
                    leaving, num, den = i, rhs[i], coeff
        if leaving is None:
            return "unbounded", pivots, None

        # Pivot: every other row with a nonzero in the entering column
        # becomes p*row - factor*pivot_row.
        p = den
        pivot_ops = ops[leaving]
        pivot_rhs = rhs[leaving]
        for i, factor in entries.items():
            if i == leaving or not factor:
                continue
            row = ops[i]
            if p > 1:
                for k in row:
                    row[k] *= p
                rhs[i] *= p
            for k, s in pivot_ops.items():
                v = row.get(k)
                if v is None:
                    row[k] = -factor * s
                    users[k].add(i)
                else:
                    v -= factor * s
                    if v:
                        row[k] = v
                    else:
                        del row[k]
                        users[k].discard(i)
            rhs[i] -= factor * pivot_rhs
            if p > 1:
                g = math.gcd(*row.values())
                if g > 1:
                    for k in row:
                        row[k] //= g
                    rhs[i] //= g
        # The reduced-cost row takes the pivot row in full: its slack
        # entries are the multipliers, its structural ones their sums.
        factor = reduced[entering]
        if p > 1:
            reduced = [p * d for d in reduced]
        for k, s in pivot_ops.items():
            step = factor * s
            reduced[n + k] -= step
            for a, js in by_row[k].items():
                step_a = step * a
                for j in js:
                    reduced[j] -= step_a
        if p > 1:
            g = math.gcd(*reduced)
            if g > 1:
                reduced = [d // g for d in reduced]
        basis[leaving] = entering
        pivots += 1

    basic = {}
    for i, b in enumerate(basis):
        if b < n and rhs[i]:
            row = ops[i]
            basic[b] = Fraction(rhs[i], sum(a * row.get(k, 0) for k, a in columns[b]))
    return "optimal", pivots, basic
