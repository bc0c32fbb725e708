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
rows cover only the columns the scan reached.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Sequence

from .arith import factorize, is_prime, prime_power_decompose
from .enumeration import PointSet, ResidueData, residue_split, split_leftover
from .errors import ContractViolation, HypothesisViolation, Record, SoundnessError, strict_int
from .exponents import (
    INFINITE,
    BoxBounds,
    ExactLog,
    ExponentSet,
    MethodParams,
    _ilog,
    _shift_vector,
    build_exponent_set,
    choose_Y,
    compute_params,
    default_floor_constant,
    shift_multiplicity,
    staircase_size,
)
from .polynomials import (
    IntegerPolynomial,
    eval_monomial,
    is_coprime,
    top_degree_part,
)
from .scalars import to_mpf, workprec


# -- matrices and exact linear algebra ----------------------------------------


class MonomialMatrix(Record):
    """Grid of monomial values: entry (j, i) is rows[j] raised to cols[i]."""

    rows: tuple
    cols: tuple
    entries: tuple

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def entry(self, j: int, i: int) -> int:
        return self.entries[j][i]


def build_matrix(points: Sequence, E: ExponentSet) -> MonomialMatrix:
    """Monomial-value matrix with one row per point, one column per member."""
    pts = tuple(tuple(strict_int(x, "point coordinate") for x in p) for p in points)
    if not pts:
        raise ContractViolation("matrix needs at least one point")
    for p in pts:
        if len(p) != 3:
            raise ContractViolation(f"point {p} is not a triple")
    cols = E.members
    if not cols:
        raise ContractViolation("matrix needs at least one column")
    # per point, the powers x^0..x^top of each coordinate (0^0 = 1), so
    # each cell is one product of three table entries
    tops = [max(e[k] for e in cols) for k in range(3)]
    entries = []
    for p in pts:
        powers = []
        for x, top in zip(p, tops):
            run = [1]
            for _ in range(top):
                run.append(run[-1] * x)
            powers.append(run)
        a, b, c = powers
        entries.append(tuple(a[i] * b[j] * c[k] for i, j, k in cols))
    return MonomialMatrix(rows=pts, cols=cols, entries=tuple(entries))


def integer_determinant(grid: Sequence[Sequence[int]]) -> int:
    """Exact determinant, read from the shared Bareiss elimination.

    For a full-rank square grid the last pivot of ``_row_reduce`` is the
    determinant of the rows in pivot order, so the determinant is that
    pivot times the sign of the row order; a rank-deficient grid gives 0.
    """
    n = len(grid)
    if n == 0:
        return 1
    if any(len(row) != n for row in grid):
        raise ContractViolation("determinant of a non-square grid")
    rank, _, order, echelon = _row_reduce(grid)
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


def _row_reduce(grid: Sequence[Sequence[int]]):
    """Fraction-free (Bareiss) forward elimination over the integers.

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
    """
    nrows = len(grid)
    ncols = len(grid[0]) if nrows else 0
    width = min(ncols, nrows + 1)
    rows = [list(map(int, r[:width])) for r in grid]
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
                ext = list(map(int, grid[origin[i]][width:new]))
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
        if piv is None:
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
        raise ContractViolation(f"{p} is not prime")
    n = strict_int(n, "valuation argument n")
    if n == 0:
        return INFINITE
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def prime_power_valuation(n: int, p: int, j: int):
    """Largest k with (p^j)^k dividing n; infinite for n = 0."""
    v = p_adic_valuation(n, p)
    return INFINITE if v == INFINITE else v // j


# -- divisibility certificates -------------------------------------------------


class CheckedMinor(Record):
    """One verified row subset: whether its minor vanishes, and its valuation."""

    rows: tuple
    determinant_zero: bool
    valuation: int | None


class DivisibilityCertificate(Record):
    """Constructive witness that q^lam divides every full minor.

    The witness data is the inverse z of the selected coefficient, the
    integer lift s with z*coefficient - q*lift = 1, the per-column
    multiplicities, and the reduced matrix left after factoring the
    modulus out column by column.  det_transform is the determinant of
    the column-operation matrix A.  It is always 1: A is unitriangular
    in the monomial order that the shift slot fixes, which is checked in
    one pass over A's entries.
    """

    base_modulus: int
    prime: int
    prime_exponent: int
    lam: int
    certified_divisor: int
    shift: tuple
    coefficient: int
    inverse: int
    lift: int
    multiplicities: tuple
    det_transform: int
    columns: tuple
    reduced_entries: tuple
    checked_minors: tuple


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


def select_shift(g: IntegerPolynomial, q: int) -> tuple:
    """Shift-vector policy: the constant slot if its coefficient is a unit
    mod q, else one of the two pure top-degree slots."""
    q = strict_int(q, "modulus")
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
):
    """Column operations of a certificate and the reduced matrix they give.

    Returns (a_cols, divisors, reduced): a_cols[i] lists the nonzero
    entries (row, value) of column i of A, divisors[i] is q^mu of that
    column, and reduced is R as a list of rows.  Column i of R is read
    from the points, as x^(e - mu t) * (gq(x)/q)^mu, not from M A, so
    checking M A = R D compares two independent computations.
    """
    col_pos = {e: i for i, e in enumerate(E.members)}
    restricted = E.restricted_set
    a_cols: list = [((i, 1),) for i in range(len(E.members))]
    divisors = [1] * len(E.members)
    reduced = [list(row) for row in M.entries]
    quotients = []
    for pt in M.rows:
        w, rem = divmod(gq.evaluate(pt), q)
        if rem:
            raise SoundnessError(
                f"reduced side polynomial at {pt} is not divisible by {q}"
            )
        quotients.append(w)
    gq_powers = [IntegerPolynomial.constant(3, 1)]
    for e, mu in mus:
        if mu == 0:
            continue
        while len(gq_powers) <= mu:
            gq_powers.append(gq_powers[-1] * gq)
        i = col_pos[e]
        shifted = tuple(a - mu * b for a, b in zip(e, t))
        replacement = IntegerPolynomial.monomial(3, shifted) * gq_powers[mu]
        for u in replacement.terms:
            if u not in restricted:
                raise SoundnessError(
                    f"replacement column for {e} leaves the restricted set at {u}"
                )
        a_cols[i] = tuple((col_pos[u], cu) for u, cu in replacement.terms.items())
        divisors[i] = q ** mu
        for row, pt, w in zip(reduced, M.rows, quotients):
            row[i] = eval_monomial(pt, shifted) * w ** mu
    return a_cols, divisors, reduced


def _check_column_identity(entries, a_cols, divisors, reduced) -> None:
    """Raise SoundnessError unless M A = R D holds on every entry.

    a_cols[i] lists the nonzero entries (row, value) of column i of A and
    D = diag(divisors).  Each column of M A is summed from the columns of
    M that column i of A touches.
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
    g: IntegerPolynomial,
    q: int,
    t: Sequence[int],
    E: ExponentSet,
    S,
    *,
    samples: int = 32,
    rng: random.Random | None = None,
    extra_subsets: Sequence[Sequence[int]] = (),
) -> DivisibilityCertificate:
    """Factor q^mu out of each restricted column, certifying q^lam | minors.

    Requires a prime-power modulus, rows satisfying the congruence, and
    the constant slot or a pure top-degree slot x2^l or x3^l (l = deg g)
    whose coefficient in g is a unit mod q.  Column i of the
    column-operation matrix A holds the coefficients of x^(e - mu t)
    times gq^mu, gq being g rescaled to coefficient 1 at the slot, and
    column i of the reduced matrix R holds its values divided by q^mu,
    read from gq(x)/q at each point.  M A = R D, with D = diag(q^mu), is
    checked once on every entry, and one pass over A checks that it is
    unitriangular in the order the slot fixes, so det A = 1.  Hence
    det M_S = q^lam * det R_S on every row subset S, and each sampled
    subset takes one determinant, det R_S.  Each of extra_subsets must
    name ncols distinct rows.
    """
    q = strict_int(q, "modulus")
    samples = _sample_count(samples)
    decomp = prime_power_decompose(q)
    if decomp is None:
        raise ContractViolation(f"modulus {q} is not a prime power")
    p, j = decomp
    t = _shift_vector(t)
    if g.nvars != 3 or g.depends_on(0):
        raise ContractViolation("side polynomial must be in (x2, x3) only")
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
    for pt in M.rows:
        if g.evaluate(pt) % q != 0:
            raise ContractViolation(f"point {pt} violates the congruence mod {q}")

    z = pow(c_t, -1, q)
    s = (z * c_t - 1) // q
    if z * c_t - q * s != 1:
        raise SoundnessError("inverse-lift identity failed")
    gq = g * z - IntegerPolynomial.monomial(3, t, q * s)
    if gq.terms.get(t, 0) != 1:
        raise SoundnessError("reduced side polynomial lost its unit slot")

    mus = tuple(
        (e, shift_multiplicity(e, t, E, S)) for e in E.restricted_members
    )
    lam = sum(mu for _, mu in mus)
    divisor = q ** lam

    nrows, ncols = M.shape
    a_cols, divisors, reduced = _column_operations(M, gq, q, t, E, mus)
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
            if delta == 0:
                checked.append(CheckedMinor(sub, True, None))
            else:
                checked.append(
                    CheckedMinor(sub, False, prime_power_valuation(delta, p, j))
                )

    return DivisibilityCertificate(
        base_modulus=q,
        prime=p,
        prime_exponent=j,
        lam=lam,
        certified_divisor=divisor,
        shift=t,
        coefficient=c_t,
        inverse=z,
        lift=s,
        multiplicities=mus,
        det_transform=1,
        columns=E.members,
        reduced_entries=reduced_entries,
        checked_minors=tuple(checked),
    )


def congruence_certificates(
    M: MonomialMatrix,
    g: IntegerPolynomial,
    q: int,
    E: ExponentSet,
    S,
    *,
    samples: int = 32,
    rng: random.Random | None = None,
    extra_subsets: Sequence[Sequence[int]] = (),
) -> tuple:
    """One certificate per prime power dividing q; empty for q = 1.

    The certified divisors multiply: their product divides every full
    minor, because valuations at distinct primes are independent.
    """
    q = strict_int(q, "modulus")
    if q < 1:
        raise ContractViolation("modulus must be a positive integer")
    samples = _sample_count(samples)
    if q == 1:
        return ()
    out = []
    for p, j in sorted(factorize(q).items()):
        qp = p ** j
        t = select_shift(g, qp)
        out.append(
            congruence_reduce(
                M, g, qp, t, E, S,
                samples=samples, rng=rng, extra_subsets=extra_subsets,
            )
        )
    return tuple(out)


# -- kernel polynomials ---------------------------------------------------------


class AuxiliaryPolynomial(Record):
    """Nonzero integer polynomial vanishing at all its listed points."""

    poly: IntegerPolynomial
    vanishes_on: tuple
    coprime_to_f: bool
    degree_bound: int
    role: str = "class-cover"


def _kernel_polynomial(
    M: MonomialMatrix, f: IntegerPolynomial, pivot_cols: Sequence[int], echelon
) -> AuxiliaryPolynomial:
    """Kernel polynomial of M read off its echelon form.

    The vector is supported on the first free column and the pivot
    columns before it; it is unique up to scale there.  Taking the free
    entry to be the leading minor of those pivots makes every other
    entry an integer by Cramer's rule, so back-substitution divides
    exactly.  Content divided out, leading sign normalized; vanishing at
    every row point is re-verified exactly; coprimality with f is
    checked and recorded.  Only the columns up to the free one are read,
    so the echelon rows may end right after it.
    """
    ncols = len(M.cols)
    pivot_set = set(pivot_cols)
    free = next(c for c in range(ncols) if c not in pivot_set)
    used = [c for c in pivot_cols if c < free]
    if any(len(row) <= free for row in echelon[:len(used)]):
        raise SoundnessError(f"an echelon row ends before the first free column {free}")
    vec = [0] * ncols
    vec[free] = echelon[len(used) - 1][used[-1]] if used else 1
    for k in range(len(used) - 1, -1, -1):
        row = echelon[k]
        num = -sum(row[c] * vec[c] for c in used[k + 1:]) - row[free] * vec[free]
        val, rem = divmod(num, row[used[k]])
        if rem:
            raise SoundnessError("kernel back-substitution left a remainder")
        vec[used[k]] = val
    content = math.gcd(*vec)
    ints = [v // content for v in vec]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]

    poly = IntegerPolynomial(3, {e: c for e, c in zip(M.cols, ints) if c})
    if poly.is_zero:
        raise SoundnessError("kernel extraction produced the zero polynomial")
    for pt in M.rows:
        if poly.evaluate(pt) != 0:
            raise SoundnessError(f"kernel polynomial fails to vanish at {pt}")
    return AuxiliaryPolynomial(
        poly=poly,
        vanishes_on=M.rows,
        coprime_to_f=is_coprime(poly, f),
        degree_bound=poly.total_degree(),
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
    return _kernel_polynomial(M, f, pivot_cols, echelon)


# -- the cover pipeline -----------------------------------------------------------


class FalsificationRecord(Record):
    """A nonzero full minor where the vanishing argument demanded zero."""

    label: tuple
    rows: tuple
    determinant: int
    column_count: int
    row_count: int
    sqrt_e_times_r: float
    threshold: float
    valuations: tuple  # (prime, exponent, lam, valuation or None)
    residue_valuations: tuple = ()  # (residue prime, exact valuation)


class ClassOutcome(Record):
    label: tuple
    points: tuple
    row_count: int
    column_count: int
    rank: int
    outcome: str  # 'aux' or 'falsified'
    aux_index: int | None
    certificates: tuple
    falsification: FalsificationRecord | None


class CoverReport(Record):
    """Everything the cover construction produced, exactly as computed.

    ``set_size`` is |E(Y)| at the chosen ``cutoff``.  The staircase
    ``exponent_set`` itself is built only when some class builds a
    matrix; with no class to cover (no points) it is ``None`` and the
    size comes from ``staircase_size`` alone.
    """

    branch: str
    hypothesis_route: str
    params: MethodParams
    threshold: object
    residue_primes: tuple
    residue_product: int
    cutoff: ExactLog
    set_size: int
    exponent_set: ExponentSet | None
    floor_constant: int
    degree_cap: int
    classes: tuple
    auxiliaries: tuple
    leftover: tuple
    falsifications: tuple
    coverage_complete: bool
    counts: Mapping[str, int]


def _hypothesis_route(g: IntegerPolynomial, q: int, box: BoxBounds) -> str:
    c0 = g.constant_term()
    if math.gcd(q, c0) == 1:
        return "constant-term"
    if box.equal:
        l = g.total_degree()
        g0 = top_degree_part(g)
        a = g0.terms.get((0, l, 0), 0)
        b = g0.terms.get((0, 0, l), 0)
        if math.gcd(q, c0, a, b) == 1:
            return "top-degree"
    raise HypothesisViolation(
        "modulus shares a factor with the side polynomial's constant term, "
        "and the equal-box top-degree fallback does not apply"
    )


def aux_pipeline(
    f: IntegerPolynomial,
    g: IntegerPolynomial,
    q: int,
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
    if f.nvars != 3 or g.nvars != 3:
        raise ContractViolation("pipeline is defined for three variables")
    if f.is_zero or f.is_constant:
        raise ContractViolation("surface polynomial must be non-constant")
    q = strict_int(q, "modulus")
    if q < 1:
        raise ContractViolation("modulus must be a positive integer")
    minor_samples = _sample_count(minor_samples)
    if floor_const is not None and floor_const < 0:
        raise ContractViolation("floor constant must be nonnegative")

    route = _hypothesis_route(g, q, box)

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

    params = compute_params(f, g, q, box, epsilon)
    threshold = params.cover_scale_eps if scale_override is None else to_mpf(scale_override)

    point_set = PointSet(tuple(sorted(pts)), box, False)
    if threshold <= 1:
        branch = "single-cover"
        r = 1
        classes = {(): point_set} if pts else {}
        excluded: tuple = ()
    else:
        branch = "standard"
        r = residues.product
        classes = residue_split(point_set, residues, f)
        excluded = split_leftover(point_set, classes)

    def constraint(cutoff: ExactLog) -> bool:
        count = staircase_size(cutoff, params.dominant, box)
        with workprec():
            return to_mpf(count) * r * r > threshold * threshold

    c_floor = floor_const if floor_const is not None else default_floor_constant(epsilon)
    cutoff = choose_Y(
        constraint, box=box, floor_const=c_floor, log_top=params.log_top_height
    )

    if classes:
        E_set = build_exponent_set(cutoff, params.dominant, box)
        e_count = len(E_set)
    else:
        # no class builds a matrix, so only the size of E(Y) is reported
        E_set = None
        e_count = staircase_size(cutoff, params.dominant, box)
    cap = _ilog(box.bmin, cutoff.height)
    S = params.side
    rng = random.Random(seed)

    auxiliaries: list[AuxiliaryPolynomial] = []
    outcomes: list[ClassOutcome] = []
    falsifications: list[FalsificationRecord] = []
    leftover: list = list(excluded)
    counts = {
        "classes": len(classes),
        "points": len(pts),
        "matrices_built": 0,
        "rank_computations": 0,
        "certificates": 0,
        "minors_checked": 0,
    }

    for label in sorted(classes):
        class_points = classes[label].points
        M = build_matrix(class_points, E_set)
        counts["matrices_built"] += 1
        rank, pivot_cols, pivot_rows, echelon = _row_reduce(M.entries)
        counts["rank_computations"] += 1
        J = len(class_points)

        full = rank == e_count
        certs: tuple = ()
        if q > 1 and J >= e_count:
            certs = congruence_certificates(
                M, g, q, E_set, S,
                samples=minor_samples, rng=rng,
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
            with workprec():
                sqrt_er = float(to_mpf(e_count) ** to_mpf(0.5) * r)
            rec = FalsificationRecord(
                label=label,
                rows=tuple(pivot_rows[:e_count]),
                determinant=delta,
                column_count=e_count,
                row_count=J,
                sqrt_e_times_r=sqrt_er,
                threshold=float(threshold),
                valuations=vals,
                residue_valuations=rvals,
            )
            falsifications.append(rec)
            leftover.extend(class_points)
        else:
            aux = _kernel_polynomial(M, f, pivot_cols, echelon)
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
                row_count=J,
                column_count=e_count,
                rank=rank,
                outcome="falsified" if full else "aux",
                aux_index=aux_index,
                certificates=certs,
                falsification=rec,
            )
        )
        counts["certificates"] += len(certs)
        counts["minors_checked"] += sum(len(c.checked_minors) for c in certs)

    deriv_index = next(
        (i for i in range(3) if not f.partial_derivative(i).is_zero), None
    )
    if deriv_index is None:
        raise ContractViolation("surface polynomial has no nonzero derivative")
    deriv = f.partial_derivative(deriv_index)
    auxiliaries.append(
        AuxiliaryPolynomial(
            poly=deriv,
            vanishes_on=(),
            coprime_to_f=is_coprime(deriv, f),
            degree_bound=deriv.total_degree(),
            role="singular-cover",
        )
    )

    leftover_set = set(leftover)
    coverage_complete = all(
        pt in leftover_set or any(a.poly.evaluate(pt) == 0 for a in auxiliaries)
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
        falsifications=tuple(falsifications),
        coverage_complete=coverage_complete,
        counts=counts,
    )
