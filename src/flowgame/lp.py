"""A small exact linear-program solver over rationals.

Two-phase primal simplex with Bland's rule, so it terminates on degenerate
problems and produces identical output on identical input. Floating-point
LP libraries cannot serve here: best responses and equilibrium gaps are
decided by exact equality, and the problems are desk-scale (tens of rows
and up to a few hundred columns), so a textbook tableau is the right tool.

Problems are stated as::

    minimize    c . x
    subject to  A_eq x  = b_eq
                A_ub x <= b_ub
                x >= 0

with every number an ``int`` or a ``Fraction``.

The tableau is fraction-free (integer-preserving pivots; Edmonds 1967,
Bareiss 1968). Each row is a list of ints that stands for itself divided
by the coefficient of the row's basic variable, which is kept positive.
Each input row is scaled to ints once, by the LCM of its denominators (a
row of ints alone is taken as it is, with scale 1); slack and artificial
coefficients stay 1, which only rescales those variables, and the
phase-1 costs of the artificials are weighted so the phase-1 objective
is a positive multiple of the plain sum of artificials. A pivot on
(r, c), with p = row_r[c] > 0, replaces every other row i that has a
nonzero in column c by p*row_i - row_i[c]*row_r and divides it by the
gcd of its entries, so no Fraction is built per entry and the entries
stay as small as the data allow. The pivot row's nonzero columns are
listed once per pivot, and the subtraction touches only those columns:
packing programs have mostly-zero rows, and skipping their zeros
changes no entry. The reduced-cost row is kept only up to a positive
factor; the objective is read off the solution.

Scaling a row or a column by a positive factor changes no sign of a
reduced cost and no order among the ratios rhs/coefficient of one column,
and those signs and that order are all Bland's rule reads. So the
entering and leaving choices, the pivot count, the final basis and the
result are those of the same simplex run on a Fraction tableau (kept in
the tests as an oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rational import to_integers


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal", "infeasible", or "unbounded"
    objective: Optional[Fraction]
    solution: Optional[tuple]
    pivots: int  # of phase 1, the drive-out step and phase 2


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
    """Solve the LP exactly. ``eq`` and ``ub`` are sequences of
    ``(coefficients, rhs)`` pairs over the same variables as ``minimize``."""
    cost_scale, scaled_costs = _scaled(minimize)
    n = len(scaled_costs)

    # Rows on ints: (coeffs and rhs scaled by the row's LCM, that LCM,
    # whether the row gets a slack).
    rows = []
    for constraints, has_slack in ((eq, False), (ub, True)):
        for coeffs, rhs in constraints:
            scale, scaled = _scaled((*coeffs, rhs))
            rows.append((scaled, scale, has_slack))

    n_slack = sum(1 for *_, has_slack in rows if has_slack)
    art_start = n + n_slack

    tableau = []
    basis = []
    artificial = []  # (row index, row scale)
    slack = n
    for scaled, scale, has_slack in rows:
        row = scaled[:-1] + [0] * n_slack + scaled[-1:]
        this_slack = None
        if has_slack:
            row[slack] = 1
            this_slack = slack
            slack += 1
        if row[-1] < 0:
            row = [-v for v in row]
            this_slack = None  # slack coefficient is now -1, unusable as basis
        if this_slack is None:
            artificial.append((len(tableau), scale))
        basis.append(this_slack)  # artificial rows are patched below
        tableau.append(row)

    n_art = len(artificial)
    width = art_start + n_art  # columns excluding rhs
    for row in tableau:
        row[-1:-1] = [0] * n_art
    for k, (i, _) in enumerate(artificial):
        tableau[i][art_start + k] = 1
        basis[i] = art_start + k

    pivots = 0
    # Phase 1: minimize the artificial total to find a feasible basis. The
    # artificial of row i stands for the true one times the row's scale
    # k_i, so it costs lcm/k_i.
    if n_art:
        lcm = math.lcm(*(scale for _, scale in artificial))
        reduced = [0] * (width + 1)
        for k, (i, scale) in enumerate(artificial):
            weight = lcm // scale
            reduced[art_start + k] = weight
            reduced = [v - weight * a for v, a in zip(reduced, tableau[i])]
        status, pivots = _pivot_until_optimal(tableau, reduced, basis, width)
        if status != "optimal" or reduced[-1] < 0:
            return LpResult("infeasible", None, None, pivots)
        pivots += _drive_out_artificials(tableau, basis, art_start)
        tableau = [row[:art_start] + row[-1:] for row in tableau]
        width = art_start

    # Phase 2: the real objective, scaled to ints by its LCM.
    reduced = list(scaled_costs) + [0] * (width - n + 1)
    for row, b in zip(tableau, basis):
        weight = reduced[b]
        if weight != 0:
            # reduced - weight * row / row[b], times row[b] > 0
            d = row[b]
            reduced = _reduce([d * v - weight * a for v, a in zip(reduced, row)])
    status, phase_2 = _pivot_until_optimal(tableau, reduced, basis, width)
    pivots += phase_2
    if status == "unbounded":
        return LpResult("unbounded", None, None, pivots)

    solution = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            solution[b] = Fraction(row[-1], row[b])
    objective = sum((c * x for c, x in zip(scaled_costs, solution) if x), Fraction(0))
    objective /= cost_scale
    return LpResult("optimal", objective, tuple(solution), pivots)


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


def _reduce(row: list) -> list:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def _pivot(tableau, reduced, basis, row, col) -> None:
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:  # the drive-out step; the new basic coefficient must be positive
        pivot_row = tableau[row] = [-v for v in pivot_row]
        p = -p
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
    the pivot row given by its nonzero ``(column, value)`` pairs."""
    new = [p * v for v in other] if p != 1 else other[:]
    for j, a in nonzero:
        new[j] -= factor * a
    return _reduce(new)


def _drive_out_artificials(tableau, basis, art_start) -> int:
    """Pivot zero-valued artificial variables out of the basis; a row with
    no real nonzero coefficient is redundant and removed. Returns the
    number of pivots."""
    pivots = 0
    i = 0
    while i < len(tableau):
        if basis[i] < art_start:
            i += 1
            continue
        pivot_col = None
        for j in range(art_start):
            if tableau[i][j] != 0:
                pivot_col = j
                break
        if pivot_col is None:
            del tableau[i]
            del basis[i]
            continue
        dummy = [0] * len(tableau[i])
        _pivot(tableau, dummy, basis, i, pivot_col)
        pivots += 1
        i += 1
    return pivots
