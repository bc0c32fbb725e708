"""Monomial matrices, exact minors, divisibility certificates, covers.

The engine builds the matrix of monomial values at surface points,
factors a guaranteed power of the congruence modulus out of every full
minor by explicit column operations, and extracts integer kernel
polynomials that vanish on all the points of a class.  All determinants,
ranks, and valuations are computed exactly.  Determinants, ranks, pivot
rows and kernel vectors come from one fraction-free (Bareiss) integer
elimination; there is no rational arithmetic.  The elimination is lazy in
rows and in columns: it touches a row only when the pivot scan reaches it,
and it computes a column only when the scan reaches it, so its echelon
rows cover only the columns the scan reached.  Every monomial value x^e at
a class's points comes from one place, the class's value columns, each
built once over all its points.  The cover pipeline hands the elimination
rows that read those columns a slice at a time, so a class computes only
the cells the scan reaches and walks only the staircase members those
cells need, a prefix in box order; only a class that takes certificates,
which check M A = R D on every cell, builds the whole matrix and walks
every member.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import chain, repeat
from typing import Mapping, Sequence

from .arith import factorize, is_prime, prime_power_decompose
from .enumeration import ResidueData, residue_split, split_leftover
from .errors import (
    ContractViolation, HypothesisViolation, Record, SoundnessError, _shown, strict_int,
    strict_real,
)
from .exponents import (
    INFINITE,
    BoxBounds,
    ExactLog,
    ExponentSet,
    MethodParams,
    SideCondition,
    _ilog,
    build_exponent_set,
    check_columns,
    choose_Y,
    compute_params,
    default_floor_constant,
    shift_multiplicity,
    side_log_height,
    staircase_size,
)
from .polynomials import IntegerPolynomial, _as_exponent, is_coprime
from .scalars import rnd, root


# -- matrices and exact linear algebra ----------------------------------------


def _int_cells(grid, what: str = "matrix entry"):
    """grid as it is when every cell is exactly an int, else its cells read by
    ``strict_int`` into a tuple of tuples; the type scan runs at C level."""
    if set(map(type, chain.from_iterable(grid))) - {int}:
        return tuple(tuple(x if type(x) is int else strict_int(x, what) for x in row)
                     for row in grid)
    return grid


class MonomialMatrix(Record):
    """Grid of monomial values: entry (j, i) is rows[j] raised to cols[i].

    Each cell is read by ``strict_int``, so a float, str or bool cell is
    refused; a cell of another integer type is stored as its int.
    """

    rows: tuple
    cols: tuple
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", _int_cells(self.entries))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def entry(self, j: int, i: int) -> int:
        return self.entries[j][i]


class _ValueColumns:
    """The columns x^e over a list of points, each built once.

    Column x^e is the cached column of e with its last nonzero entry e_k
    set to 0, times the powers x_k^(e_k) of coordinate column k: two
    C-level passes over the points, and at most three columns deep, so a
    term of degree up to the cap builds no chain of lower columns.
    ``evaluate`` sums a polynomial's term columns, so it gives the
    polynomial's value at every point.  This is the one place that computes
    x^e at points: ``build_matrix``, the lazy rows and the certificate all
    read it.  ``block`` keeps the last slice of columns a ``_ValueRow``
    read, transposed into rows, with its slice.
    """

    __slots__ = ("coords", "cache", "block")

    def __init__(self, points: Sequence[tuple]):
        if not points:
            raise ContractViolation("matrix needs at least one point")
        for p in points:
            if len(p) != 3:
                raise ContractViolation(f"point {_shown(tuple(p))} is not a triple")
        self.coords = _int_cells(tuple(zip(*points)), "point coordinate")
        self.cache = {(0, 0, 0): [1] * len(points)}
        self.block = None, ()

    def __call__(self, e: tuple) -> list:
        col = self.cache.get(e)
        if col is None:
            k = 2 if e[2] else 1 if e[1] else 0
            powers = map(pow, self.coords[k], repeat(e[k]))
            col = self.cache[e] = list(map(operator.mul, self(e[:k] + (0,) * (3 - k)), powers))
        return col

    def evaluate(self, poly: IntegerPolynomial) -> list:
        """poly at every point: the sum of its terms' columns."""
        acc = [0] * len(self.coords[0])
        for e, c in poly.terms.items():
            acc = list(map(operator.add, acc, map(c.__mul__, self(e))))
        return acc


class _ValueRow:
    """Row j of a class's monomial values, read from the class's value
    columns a slice at a time.

    Only slices are read: ``_row_reduce`` takes ``row[:width]`` and
    ``row[width:new]`` of every row in turn, so the first row to read a
    slice builds its columns, over the staircase's prefix up to its stop,
    and transposes them once; the rest of the rows copy their entry of that
    block.  A grid of these rows computes only the columns its pivot scan
    reaches, and the members past them are never walked.
    """

    __slots__ = ("values", "E", "j")

    def __init__(self, values: _ValueColumns, E: ExponentSet, j: int):
        self.values, self.E, self.j = values, E, j

    def __len__(self) -> int:
        return len(self.E)

    def __getitem__(self, s: slice) -> list:
        values = self.values
        key, rows = values.block
        if key != s:
            rows = list(zip(*map(values, self.E.prefix(s.stop)[s])))
            values.block = s, rows
        return list(rows[self.j]) if rows else []


def build_matrix(points: Sequence, E: ExponentSet) -> MonomialMatrix:
    """Monomial-value matrix with one row per point, one column per member:
    the value columns of every member, transposed."""
    values = _ValueColumns(tuple(points))
    entries = tuple(zip(*map(values, E.members)))
    return MonomialMatrix(rows=tuple(zip(*values.coords)), cols=E.members, entries=entries)


def integer_determinant(grid: Sequence[Sequence[int]]) -> int:
    """Exact determinant, read from the shared Bareiss elimination.

    Each cell is read by ``strict_int``.  For a full-rank square grid the
    last pivot of ``_row_reduce`` is the determinant of the rows in pivot
    order, so the determinant is that pivot times the sign of the row
    order; a rank-deficient grid gives 0.  The elimination is told that the
    grid is square, so it gives a singular grid up at its first free
    column or at its first row found to depend on the pivot rows, whichever
    the scan meets first.
    """
    n = len(grid)
    if n == 0:
        return 1
    if any(len(row) != n for row in grid):
        raise ContractViolation("determinant of a non-square grid")
    rank, _, order, echelon = _row_reduce(_int_cells(grid), square=True)
    if rank < n:
        return 0
    # sort the row order back by transpositions, one sign flip each
    sign = 1
    for i in range(n):
        while order[i] != i:
            j = order[i]
            order[i], order[j] = order[j], j
            sign = -sign
    return sign * echelon[-1][-1]


def _row_reduce(grid: Sequence[Sequence[int]], *, square: bool = False):
    """Fraction-free (Bareiss) forward elimination of a grid of ints, read as they are.

    Returns (rank, pivot_cols, pivot_rows, echelon) where pivot_rows are
    indices of original rows forming an independent spanning subset and
    echelon is the integer row echelon form restricted to the pivot rows.
    The pivot of column c is the first remaining row with a nonzero entry
    there.  After k pivots every entry at or below row k is a (k+1)-minor
    of the row-permuted matrix, so dividing by the previous pivot (the
    k-minor) is exact, and each row is a nonzero multiple of the row that
    rational elimination would give: ranks, pivots and row swaps agree.

    Rows and columns are both lazy.  Each step is remembered as (col,
    pivot, prev, top), and a row catches up on the steps it has not had
    only when the pivot scan reaches it, so on a tall grid the rows below
    the last pivot found are never touched.  Rows hold entries only on the
    first ``width`` columns, the frontier; when the scan reaches it, the
    frontier doubles and each row replays the steps it has had on the new
    columns, pivot rows first and in pivot order.  A step changes a column
    of a row using only that column, the row's multiplier (its entry in
    the step's pivot column) and the pivot row, which no later step
    changes, so every entry the scan reaches goes through the same updates
    in the same order as eager elimination would give it: the result is
    bit for bit the same.  The multiplier stays in the row as its record
    and is cleared from the echelon rows at the end.

    The frontier starts at nrows + 1 columns, so once the rank reaches
    nrows the first free column lies inside it and the scan stops there:
    the echelon rows cover only the columns the scan reached, which
    include every pivot column and the first free column.  A square or
    tall grid starts at full width; a rank-deficient wide one widens to
    full width, each column computed once.

    With ``square`` set (only ``integer_determinant`` sets it, on an n x n
    grid) the scan stops as soon as the grid is known to be singular, and
    the rank returned is then only known to be below n; the pivots,
    rows and echelon rows are those found so far.  It stops at the first
    free column, and at a caught-up row that is zero from the scan column
    on.  Before a free column every column scanned has a pivot, so the
    scan column is r, and such a row's entries on columns r..n-1 are the
    (r+1)-minors of the r pivot rows and that row on the pivot columns and
    one more column.  As they all vanish and the r pivot rows are
    independent, the row lies in their span and the grid is singular.  The
    check runs only on a zero cell of a square grid.
    """
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    width = min(ncols, nrows + 1)
    rows = [list(r[:width]) for r in grid]
    origin = list(range(nrows))
    done = [0] * nrows  # how many steps each row has had
    steps: list[tuple] = []
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if c == width:
            # widen: row k < r replays steps 0..k-1, whose pivot rows come
            # before it, so every top it reads is already widened
            new = min(ncols, 2 * width)
            for i, row in enumerate(rows):
                ext = grid[origin[i]][width:new]
                for col, pivot, before, top in steps[:done[i]]:
                    a = row[col]
                    if a:
                        ext = [(x * pivot - a * y) // before
                               for x, y in zip(ext, top[width:])]
                    elif pivot != before:
                        ext = [x * pivot // before for x in ext]
                row += ext
            width = new
        piv = None
        for i in range(r, nrows):
            row = rows[i]
            if done[i] < r:
                for col, pivot, before, top in steps[done[i]:]:
                    a = row[col]
                    if a:
                        for j in range(col + 1, width):
                            row[j] = (row[j] * pivot - a * top[j]) // before
                    elif pivot != before:
                        for j in range(col + 1, width):
                            row[j] = row[j] * pivot // before
                done[i] = r
            if row[c]:
                piv = i
                break
            if square and not any(row[c + 1:]):
                break
        if piv is None:
            if square:
                break
            continue
        # the scan caught up rows r..piv alike, so done needs no swap
        rows[r], rows[piv] = rows[piv], rows[r]
        origin[r], origin[piv] = origin[piv], origin[r]
        top = rows[r]
        pivot = top[c]
        steps.append((c, pivot, prev, top))
        prev = pivot
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    echelon = rows[:r]
    for k, row in enumerate(echelon):
        for col in pivot_cols[:k]:
            row[col] = 0
    return r, pivot_cols, origin[:r], echelon


def rank_over_rationals(M: MonomialMatrix) -> int:
    """Exact rank of the value matrix."""
    rank, _, _, _ = _row_reduce(M.entries)
    return rank


def minor_determinant(M: MonomialMatrix, rows: Sequence[int]) -> int:
    """Exact determinant of the square minor on the given row subset."""
    idx = [strict_int(i, "row index") for i in rows]
    nrows, ncols = M.shape
    if len(idx) != ncols:
        raise ContractViolation(
            f"minor needs {ncols} rows to be square, got {len(idx)}"
        )
    if any(not 0 <= i < nrows for i in idx):
        raise ContractViolation(f"row indices {idx} outside 0..{nrows - 1}")
    return integer_determinant([M.entries[i] for i in idx])


def p_adic_valuation(n: int, p: int):
    """Exponent of the prime p in n; infinite for n = 0."""
    p = strict_int(p, "prime p")
    if not is_prime(p):
        raise ContractViolation(f"{_shown(p)} is not prime")
    n = strict_int(n, "valuation argument n")
    if n == 0:
        return INFINITE
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power_valuation(n: int, p: int, j: int):
    """Largest k with (p^j)^k dividing n, for j >= 1; infinite for n = 0."""
    j = strict_int(j, "prime exponent j")
    if j < 1:
        raise ContractViolation(f"prime exponent j must be at least 1, not {_shown(j)}")
    v = p_adic_valuation(n, p)
    return INFINITE if v == INFINITE else v // j


# -- divisibility certificates -------------------------------------------------


class CheckedMinor(Record):
    """One verified row subset and its minor's valuation, None if it is 0."""

    rows: tuple
    valuation: int | None

    @property
    def determinant_zero(self) -> bool:
        return self.valuation is None


class DivisibilityCertificate(Record):
    """Constructive witness that q^lam divides every full minor.

    The witness data is the inverse z of the selected coefficient, the
    integer lift s with z*coefficient - q*lift = 1, the per-column
    multiplicities, and the reduced matrix left after factoring the
    modulus out column by column.  det_transform is the determinant of
    the column-operation matrix A, a constant of the class: A is
    unitriangular in the monomial order that the shift slot fixes, which
    is checked in one pass over A's entries.
    """

    base_modulus: int
    prime: int
    prime_exponent: int
    lam: int
    shift: tuple
    coefficient: int
    inverse: int
    lift: int
    multiplicities: tuple
    reduced_entries: tuple
    checked_minors: tuple

    det_transform = 1

    @property
    def certified_divisor(self) -> int:
        return self.base_modulus ** self.lam


# The most random row subsets a certificate samples.  Each is held until the
# duplicates are dropped, so the cap bounds memory; it is far above the default
# 32 and every sample count the tests, CI, README and benchmark use.
MINOR_SAMPLE_CAP = 10 ** 4


def _sample_count(samples) -> int:
    """The number of random row subsets a certificate samples: an int in
    [0, MINOR_SAMPLE_CAP], checked before anything is sampled."""
    samples = strict_int(samples, "minor sample count")
    if not 0 <= samples <= MINOR_SAMPLE_CAP:
        raise ContractViolation(
            f"minor sample count must be in [0, {MINOR_SAMPLE_CAP}], not {samples}"
        )
    return samples


def _slot_orders(l: int) -> dict:
    """The shift slots for a side polynomial of degree l, each with the
    order key below which it puts every entry of A off the diagonal.

    Column e of A holds x^(e - mu t) * gq^mu, gq having coefficient 1 at
    the slot t.  For the constant slot every other term has a higher
    total degree than x^e; for x2^l or x3^l, x^e leads in the graded order
    that breaks ties by that variable's exponent, then the other's.
    """
    return {
        (0, 0, 0): lambda u: -sum(u),
        (0, l, 0): lambda u: (sum(u), u[1], u[2]),
        (0, 0, l): lambda u: (sum(u), u[2], u[1]),
    }


def select_shift(side: SideCondition) -> tuple:
    """Shift-vector policy: the constant slot if its coefficient is a unit
    mod q, else one of the two pure top-degree slots."""
    g, q = SideCondition.check(side).g, side.q
    for t in _slot_orders(g.total_degree()):
        if math.gcd(q, g.terms.get(t, 0)) == 1:
            return t
    raise ContractViolation(
        f"no admissible shift for modulus {q}: neither the constant term "
        "nor a pure top-degree coefficient is a unit"
    )


def _column_operations(
    M: MonomialMatrix,
    gq: IntegerPolynomial,
    q: int,
    t: tuple,
    E: ExponentSet,
    mus: tuple,
    values: _ValueColumns,
):
    """Column operations of a certificate and the reduced matrix they give.

    Returns (a_cols, divisors, reduced): a_cols[i] lists the nonzero
    entries (row, value) of column i of A, divisors[i] is q^mu of that
    column, and reduced is R as a list of rows.  values holds the columns
    x^e over M's points.  Column i of R is read from the points, as
    x^(e - mu t) * w^mu with w = gq(x)/q, a whole column at a time from
    those value columns, not from M A, so checking M A = R D compares two
    independent computations.  Column i of A is gq^mu with its exponents
    shifted by e - mu t.
    """
    col_pos = {e: i for i, e in enumerate(E.members)}
    restricted = E.restricted_set
    a_cols: list = [((i, 1),) for i in range(len(E.members))]
    divisors = [1] * len(E.members)
    reduced = [list(row) for row in M.entries]
    quotients = []
    for pt, v in zip(M.rows, values.evaluate(gq)):
        w, rem = divmod(v, q)
        if rem:
            raise SoundnessError(
                f"reduced side polynomial at {pt} is not divisible by {q}"
            )
        quotients.append(w)
    gq_powers = [IntegerPolynomial.constant(3, 1)]
    w_powers = [values((0, 0, 0))]
    for e, mu in mus:
        if mu == 0:
            continue
        while len(gq_powers) <= mu:
            gq_powers.append(gq_powers[-1] * gq)
            w_powers.append(list(map(operator.mul, w_powers[-1], quotients)))
        i = col_pos[e]
        shifted = tuple(a - mu * b for a, b in zip(e, t))
        column = []
        for u, cu in gq_powers[mu].terms.items():
            u = (u[0] + shifted[0], u[1] + shifted[1], u[2] + shifted[2])
            if u not in restricted:
                raise SoundnessError(
                    f"replacement column for {e} leaves the restricted set at {u}"
                )
            column.append((col_pos[u], cu))
        a_cols[i] = tuple(column)
        divisors[i] = q ** mu
        for row, v in zip(reduced, map(operator.mul, values(shifted), w_powers[mu])):
            row[i] = v
    return a_cols, divisors, reduced


def _check_column_identity(entries, a_cols, divisors, reduced) -> None:
    """Raise SoundnessError unless M A = R D holds on every entry.

    a_cols[i] lists the nonzero entries (row, value) of column i of A and
    D = diag(divisors).  The identity is compared a column at a time,
    exactly on every cell: each column of M A is summed from the columns
    of M that column i of A touches and compared with column i of R times
    its divisor.
    """
    m_cols = list(zip(*entries))
    for i, (pairs, d) in enumerate(zip(a_cols, divisors)):
        acc = [0] * len(entries)
        for r, a in pairs:
            acc = [x + a * y for x, y in zip(acc, m_cols[r])]
        if acc != [row[i] * d for row in reduced]:
            raise SoundnessError(
                f"column {i} of M A differs from the reduced column times {d}"
            )


def _check_unitriangular(a_cols, keys) -> None:
    """Raise SoundnessError unless A is unitriangular, so det A = 1: each
    column i holds exactly 1 on its diagonal and its other entries at rows
    whose order key is strictly below keys[i]."""
    for i, pairs in enumerate(a_cols):
        diagonal = sum(a for r, a in pairs if r == i)
        if diagonal != 1:
            raise SoundnessError(f"column {i} of A has {diagonal} on its diagonal, not 1")
        for r, a in pairs:
            if r != i and a and not keys[r] < keys[i]:
                raise SoundnessError(f"column {i} of A has an entry at row {r} on the wrong side")


def congruence_reduce(
    M: MonomialMatrix,
    side: SideCondition,
    t: Sequence[int],
    E: ExponentSet,
    *,
    samples: int = 32,
    rng: random.Random | None = None,
    extra_subsets: Sequence[Sequence[int]] = (),
) -> DivisibilityCertificate:
    """Factor q^mu out of each restricted column, certifying q^lam | minors.

    Requires a prime-power modulus, rows satisfying the congruence, and
    the constant slot or a pure top-degree slot x2^l or x3^l (l = deg g)
    whose coefficient in g is a unit mod q.  Each column's mu is its
    shift multiplicity under the side height, g's tallest monomial in the
    box of E (``side_log_height``).  Column i of the
    column-operation matrix A holds the coefficients of x^(e - mu t)
    times gq^mu, gq being g rescaled to coefficient 1 at the slot, and
    column i of the reduced matrix R holds its values divided by q^mu,
    read from gq(x)/q at each point.  The congruence check, the quotients
    and R's replaced columns all come from per-point value columns x^e,
    each built once over every point (``_ValueColumns``).  M A = R D,
    with D = diag(q^mu), is checked once, exactly on every entry, a column
    at a time, and one pass over A checks that it is
    unitriangular in the order the slot fixes, so det A = 1.  Hence
    det M_S = q^lam * det R_S on every row subset S, and each sampled
    subset takes one determinant, det R_S.  Each of extra_subsets must
    name ncols distinct rows.
    """
    g, q = SideCondition.check(side).g, side.q
    samples = _sample_count(samples)
    decomp = prime_power_decompose(q)
    if decomp is None:
        raise ContractViolation(f"modulus {q} is not a prime power")
    p, j = decomp
    t = _as_exponent(3, t)
    slot_order = _slot_orders(g.total_degree()).get(t)
    if slot_order is None:
        raise ContractViolation(
            f"shift {t} is neither the constant slot nor a pure top-degree slot"
        )
    if M.cols != E.members:
        raise ContractViolation("matrix columns do not match the exponent set")
    c_t = g.terms.get(t, 0)
    if math.gcd(c_t, q) != 1:
        raise ContractViolation(
            f"coefficient {c_t} of the shift slot {t} is not a unit mod {q}"
        )
    values = _ValueColumns(M.rows)
    for pt, v in zip(M.rows, values.evaluate(g)):
        if v % q:
            raise ContractViolation(f"point {pt} violates the congruence mod {q}")

    z = pow(c_t, -1, q)
    s = (z * c_t - 1) // q
    if z * c_t - q * s != 1:
        raise SoundnessError("inverse-lift identity failed")
    gq = g * z - IntegerPolynomial.monomial(3, t, q * s)
    if gq.terms.get(t, 0) != 1:
        raise SoundnessError("reduced side polynomial lost its unit slot")

    S = side_log_height(g, E.box)[1]
    mus = tuple((e, shift_multiplicity(e, t, E, S)) for e in E.restricted_members)
    lam = sum(mu for _, mu in mus)
    divisor = q ** lam

    nrows, ncols = M.shape
    a_cols, divisors, reduced = _column_operations(M, gq, q, t, E, mus, values)
    del values  # not read again: freed before the check and the minors
    _check_column_identity(M.entries, a_cols, divisors, reduced)
    _check_unitriangular(a_cols, [slot_order(e) for e in E.members])
    if math.prod(divisors) != divisor:
        raise SoundnessError(f"the column divisors do not multiply to {q}^{lam}")

    reduced_entries = tuple(tuple(row) for row in reduced)

    checked: list[CheckedMinor] = []
    if nrows >= ncols and ncols >= 1:
        if rng is None:
            rng = random.Random(0)
        subsets: list[tuple] = [tuple(range(ncols))]
        for extra in extra_subsets:
            subsets.append(tuple(sorted(strict_int(v, "row index") for v in extra)))
        for _ in range(samples):
            subsets.append(tuple(sorted(rng.sample(range(nrows), ncols))))
        seen = set()
        for sub in subsets:
            if sub in seen:
                continue
            seen.add(sub)
            if len(set(sub)) != ncols or any(not 0 <= i < nrows for i in sub):
                raise ContractViolation(
                    f"bad row subset {sub}: needs {ncols} distinct rows of {nrows}"
                )
            # q^lam times an integer: its valuation is at least lam
            delta = divisor * integer_determinant([reduced_entries[i] for i in sub])
            checked.append(
                CheckedMinor(sub, prime_power_valuation(delta, p, j) if delta else None)
            )

    return DivisibilityCertificate(
        base_modulus=q,
        prime=p,
        prime_exponent=j,
        lam=lam,
        shift=t,
        coefficient=c_t,
        inverse=z,
        lift=s,
        multiplicities=mus,
        reduced_entries=reduced_entries,
        checked_minors=tuple(checked),
    )


def congruence_certificates(
    M: MonomialMatrix,
    side: SideCondition,
    E: ExponentSet,
    *,
    samples: int = 32,
    rng: random.Random | None = None,
    extra_subsets: Sequence[Sequence[int]] = (),
) -> tuple:
    """One certificate per prime power dividing q; empty for q = 1.

    The certified divisors multiply: their product divides every full
    minor, because valuations at distinct primes are independent.  q is
    factored once here; each prime power's side condition goes down whole.
    """
    g, q = SideCondition.check(side).g, side.q
    samples = _sample_count(samples)
    if q == 1:
        return ()
    out = []
    for p, j in sorted(factorize(q).items()):
        side_p = SideCondition(g, p ** j)
        out.append(congruence_reduce(M, side_p, select_shift(side_p), E, samples=samples,
                                     rng=rng, extra_subsets=extra_subsets))
    return tuple(out)


# -- kernel polynomials ---------------------------------------------------------


class AuxiliaryPolynomial(Record):
    """Nonzero integer polynomial vanishing at all its listed points."""

    poly: IntegerPolynomial
    vanishes_on: tuple
    coprime_to_f: bool
    role: str = "class-cover"


def _kernel_polynomial(
    points: tuple, cols: tuple, f: IntegerPolynomial, pivot_cols: Sequence[int], echelon
) -> AuxiliaryPolynomial:
    """Kernel polynomial of the value matrix of points under the monomials
    cols, read off its echelon form.

    The vector is supported on the first free column and the pivot
    columns before it; it is unique up to scale there.  Taking the free
    entry to be the leading minor of those pivots makes every other
    entry an integer by Cramer's rule, so back-substitution divides
    exactly.  Content divided out, leading sign normalized; vanishing at
    every row point is re-verified exactly; coprimality with f is
    checked and recorded.  Only the columns up to the free one are read,
    so the echelon rows may end right after it, and cols need only run that
    far: the columns before it are the pivot columns 0..free - 1.
    """
    free = next((k for k, c in enumerate(pivot_cols) if c != k), len(pivot_cols))
    if any(len(row) <= free for row in echelon[:free]):
        raise SoundnessError(f"an echelon row ends before the first free column {free}")
    vec = [0] * (free + 1)
    vec[free] = echelon[free - 1][free - 1] if free else 1
    for k in range(free - 1, -1, -1):
        row = echelon[k]
        num = -sum(row[c] * vec[c] for c in range(k + 1, free + 1))
        val, rem = divmod(num, row[k])
        if rem:
            raise SoundnessError("kernel back-substitution left a remainder")
        vec[k] = val
    content = math.gcd(*vec)
    ints = [v // content for v in vec]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]

    poly = IntegerPolynomial(3, {e: c for e, c in zip(cols, ints) if c})
    if poly.is_zero:
        raise SoundnessError("kernel extraction produced the zero polynomial")
    for pt in points:
        if poly.evaluate(pt) != 0:
            raise SoundnessError(f"kernel polynomial fails to vanish at {pt}")
    return AuxiliaryPolynomial(
        poly=poly,
        vanishes_on=points,
        coprime_to_f=is_coprime(poly, f),
    )


def null_space_polynomial(M: MonomialMatrix, f: IntegerPolynomial) -> AuxiliaryPolynomial:
    """Primitive integer kernel vector of M, read as a polynomial.

    The kernel is taken for the first free column, content divided out,
    leading sign normalized.  Vanishing at every row point is re-verified
    exactly; coprimality with f is checked and recorded.
    """
    rank, pivot_cols, _, echelon = _row_reduce(M.entries)
    if rank >= len(M.cols):
        raise ContractViolation("no null vector: the matrix has full column rank")
    return _kernel_polynomial(M.rows, M.cols, f, pivot_cols, echelon)


# -- the cover pipeline -----------------------------------------------------------


class FalsificationRecord(Record):
    """A nonzero full minor where the vanishing argument demanded zero."""

    rows: tuple
    determinant: int
    sqrt_e_times_r: float
    valuations: tuple  # (prime, exponent, lam, valuation or None)
    residue_valuations: tuple = ()  # (residue prime, exact valuation)


class ClassOutcome(Record):
    """One residue class: a row per point, the report's set_size columns."""

    label: tuple
    points: tuple
    rank: int
    outcome: str  # 'aux' or 'falsified'
    aux_index: int | None
    certificates: tuple
    falsification: FalsificationRecord | None


class CoverReport(Record):
    """Everything the cover construction produced, exactly as computed.

    ``set_size`` is |E(Y)| at the chosen ``cutoff``, as the cutoff search
    counted it.  ``exponent_set`` is the staircase at that cutoff; its
    members were walked only as far as the classes read them, all of them
    only for a class that takes certificates.
    """

    branch: str
    hypothesis_route: str
    params: MethodParams
    threshold: object
    residue_primes: tuple
    residue_product: int
    cutoff: ExactLog
    set_size: int
    exponent_set: ExponentSet
    floor_constant: int
    degree_cap: int
    classes: tuple
    auxiliaries: tuple
    leftover: tuple
    coverage_complete: bool
    counts: Mapping[str, int]


def _hypothesis_route(side: SideCondition, box: BoxBounds) -> str:
    c0 = side.g.constant_term()
    if math.gcd(side.q, c0) == 1:
        return "constant-term"
    if box.equal:
        # x2^l and x3^l, l = deg g, are top-degree terms whenever present
        l = side.g.total_degree()
        a = side.g.terms.get((0, l, 0), 0)
        b = side.g.terms.get((0, 0, l), 0)
        if math.gcd(side.q, c0, a, b) == 1:
            return "top-degree"
    raise HypothesisViolation(
        "modulus shares a factor with the side polynomial's constant term, "
        "and the equal-box top-degree fallback does not apply"
    )


def aux_pipeline(
    f: IntegerPolynomial,
    side: SideCondition,
    box: BoxBounds,
    residues: ResidueData | None,
    epsilon: float,
    points: Sequence,
    *,
    seed: int = 0,
    minor_samples: int = 32,
    floor_const: int | None = None,
    scale_override=None,
) -> CoverReport:
    """Cover the point set by few low-degree curves, with certificates.

    Splits the points into residue classes, picks one cutoff large enough
    that the column count beats the cover threshold, and per class either
    extracts a kernel polynomial vanishing on the whole class or reports
    the nonzero minor that falsified the construction.  A nonvanishing
    partial derivative of f is always appended so that singular surface
    points are covered too.
    """
    g, q = SideCondition.check(side).g, side.q
    if f.nvars != 3:
        raise ContractViolation("pipeline is defined for three variables")
    if f.is_constant:
        raise ContractViolation("surface polynomial must be non-constant")
    minor_samples = _sample_count(minor_samples)

    route = _hypothesis_route(side, box)

    pts = tuple(tuple(strict_int(x, "point coordinate") for x in p) for p in points)
    for pt in pts:
        if f.evaluate(pt) != 0:
            raise ContractViolation(f"point {pt} is not on the surface")
        if g.evaluate(pt) % q != 0:
            raise ContractViolation(f"point {pt} violates the congruence mod {q}")
        if any(abs(x) > b for x, b in zip(pt, box.bounds)):
            raise ContractViolation(f"point {pt} leaves the box")

    if residues is None:
        residues = ResidueData(())
    for rp in residues.primes:
        if math.gcd(rp, q) != 1:
            raise HypothesisViolation(
                f"residue prime {rp} shares a factor with the modulus {q}"
            )

    if scale_override is not None:
        strict_real(scale_override, "scale override")
    params = compute_params(f, side, box, epsilon)
    threshold = params.cover_scale_eps if scale_override is None else rnd(scale_override)

    # at threshold <= 1 one class covers every point, so none is split off
    split_by = residues if threshold > 1 else ResidueData(())
    branch = "standard" if threshold > 1 else "single-cover"
    r = split_by.product
    classes = residue_split(pts, split_by, f)

    squared = rnd(threshold * threshold)
    sizes = {}  # |E(Y)| at each cutoff height the search tries

    def constraint(cutoff: ExactLog) -> bool:
        count = sizes[cutoff.height] = staircase_size(cutoff, params.dominant, box)
        return rnd(rnd(rnd(count) * r) * r) > squared

    c_floor = floor_const if floor_const is not None else default_floor_constant(epsilon)
    cutoff = choose_Y(
        constraint, box=box, floor_const=c_floor, log_top=params.log_top_height
    )
    # the search sized the cutoff it returns: refuse it before any build
    e_count = sizes[cutoff.height]
    check_columns(e_count)

    # a class walks only the members its elimination reads
    E_set = build_exponent_set(cutoff, params.dominant, box)
    if len(E_set) != e_count:
        raise SoundnessError(f"the staircase holds {len(E_set)} columns, not {e_count}")
    cap = _ilog(box.bmin, cutoff.height)
    rng = random.Random(seed)

    auxiliaries: list[AuxiliaryPolynomial] = []
    outcomes: list[ClassOutcome] = []
    leftover: list = list(split_leftover(pts, classes))
    counts = {
        "classes": len(classes),
        "points": len(pts),
        "matrices_built": 0,
        "rank_computations": 0,
        "certificates": 0,
        "minors_checked": 0,
    }

    for label, class_points in classes.items():
        certified = q > 1 and len(class_points) >= e_count
        if certified:
            # certificates check M A = R D on every cell: only they build M
            M = build_matrix(class_points, E_set)
            grid = M.entries
        else:
            values = _ValueColumns(class_points)
            grid = [_ValueRow(values, E_set, j) for j in range(len(class_points))]
        counts["matrices_built"] += 1
        rank, pivot_cols, pivot_rows, echelon = _row_reduce(grid)
        counts["rank_computations"] += 1

        full = rank == e_count
        certs: tuple = ()
        if certified:
            certs = congruence_certificates(
                M, side, E_set, samples=minor_samples, rng=rng,
                extra_subsets=(pivot_rows[:e_count],) if full else (),
            )
        rec = aux_index = None
        if full:
            # the last Bareiss pivot is the minor on the pivot rows, in order
            delta = echelon[-1][pivot_cols[-1]]
            if delta == 0:
                raise SoundnessError("full-rank pivot minor evaluated to zero")
            vals = tuple(
                (c.prime, c.prime_exponent, c.lam,
                 prime_power_valuation(delta, c.prime, c.prime_exponent))
                for c in certs
            )
            rvals = tuple(
                (rp, p_adic_valuation(delta, rp)) for rp in residues.primes
            )
            rec = FalsificationRecord(
                rows=tuple(pivot_rows[:e_count]),
                determinant=delta,
                sqrt_e_times_r=float(rnd(root(e_count) * r)),
                valuations=vals,
                residue_valuations=rvals,
            )
            leftover.extend(class_points)
        else:
            # the first free column is at most the rank
            aux = _kernel_polynomial(class_points, E_set.prefix(rank + 1), f, pivot_cols,
                                     echelon)
            if aux.poly.total_degree() > cap:
                raise SoundnessError(
                    "kernel polynomial exceeds the cutoff degree cap"
                )
            auxiliaries.append(aux)
            aux_index = len(auxiliaries) - 1
        outcomes.append(
            ClassOutcome(
                label=label,
                points=class_points,
                rank=rank,
                outcome="falsified" if full else "aux",
                aux_index=aux_index,
                certificates=certs,
                falsification=rec,
            )
        )
        counts["certificates"] += len(certs)
        counts["minors_checked"] += sum(len(c.checked_minors) for c in certs)

    # f is non-constant, so some partial derivative is nonzero
    deriv = next(d for d in map(f.partial_derivative, range(3)) if not d.is_zero)
    auxiliaries.append(
        AuxiliaryPolynomial(
            poly=deriv,
            vanishes_on=(),
            coprime_to_f=is_coprime(deriv, f),
            role="singular-cover",
        )
    )

    # a class point's own kernel covers it unless something is wrong, so
    # it is tried first, then every auxiliary
    leftover_set = set(leftover)
    own = {pt: a.poly for a in auxiliaries for pt in a.vanishes_on}
    coverage_complete = all(
        pt in leftover_set
        or pt in own and own[pt].evaluate(pt) == 0
        or any(a.poly.evaluate(pt) == 0 for a in auxiliaries)
        for pt in pts
    )

    return CoverReport(
        branch=branch,
        hypothesis_route=route,
        params=params,
        threshold=threshold,
        residue_primes=residues.primes,
        residue_product=r,
        cutoff=cutoff,
        set_size=e_count,
        exponent_set=E_set,
        floor_constant=c_floor,
        degree_cap=cap,
        classes=tuple(outcomes),
        auxiliaries=tuple(auxiliaries),
        leftover=tuple(sorted(leftover_set)),
        coverage_complete=coverage_complete,
        counts=counts,
    )
