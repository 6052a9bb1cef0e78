"""Dense exact matrices over a field and the elimination kernels everything
else uses.

There are two Gauss-Jordan kernels, one per field, and both pivot in each
column, left to right, on the first unused row with a nonzero entry.
Over Q, ``_int_rref`` works on integer rows: each nonzero row is cleared
of denominators, an update is p * row_i - c * row_piv followed by division
by the row's content, and Fractions are built only from the final rows.
Over F_p, ``_rref`` divides by the pivot.  Two routines enter them:
``rref``, from which every kernel, basis completion and inverse comes, and
``pivot_columns``, the Fraction-free path for ranks.  The reduced row
echelon form is unique, so both kernels give the same answers: kernel
vectors set the free coordinate to 1 in ascending index order, and a
completion keeps the pivot columns, i.e. each candidate that is
independent of the columns before it.  Reproducibility of these choices
is what later makes spectral-sequence pages canonical objects with
decidable equality.  Products, ``apply`` and zero tests skip zero entries
by truthiness, which is what makes the sparse matrices of the filtered
oracle cheap.

Matrices over the local ring at t = 0 are built and multiplied here, but
never eliminated: their one elimination is ``degeneration.dvr_decompose``,
which pivots on minimal t-adic valuation, and whose blocks also give the
ranks over Q(t).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rings import QQ, Domain


class Matrix:
    """Immutable rectangular matrix with entries in a single domain."""

    __slots__ = ("domain", "rows", "cols", "entries")

    def __init__(self, domain: Domain, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        grid = [[domain.coerce(x) for x in row] for row in entries]
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"entries do not form a {rows}x{cols} grid")
        self.domain = domain
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(r) for r in grid)

    @classmethod
    def _of(cls, domain: Domain, rows: int, cols: int, grid) -> "Matrix":
        """A matrix on a rows x cols grid whose entries are already elements
        of domain, as the results of Matrix operations are: no coercion."""
        M = object.__new__(cls)
        M.domain, M.rows, M.cols = domain, rows, cols
        M.entries = tuple(map(tuple, grid))
        return M

    @classmethod
    def zeros(cls, domain: Domain, rows: int, cols: int) -> "Matrix":
        z = domain.zero
        return cls(domain, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, domain: Domain, n: int) -> "Matrix":
        z, o = domain.zero, domain.one
        return cls(domain, n, n,
                   [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, domain: Domain, nrows: int, columns) -> "Matrix":
        columns = list(columns)
        return cls(domain, nrows, len(columns),
                   [[col[i] for col in columns] for i in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.domain == other.domain
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.domain, self.entries))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix._of(self.domain, self.rows, self.cols,
                          [[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix._of(self.domain, self.rows, self.cols,
                          [[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix._of(self.domain, self.rows, self.cols,
                          [[-a for a in row] for row in self.entries])

    def scale(self, c) -> "Matrix":
        c = self.domain.coerce(c)
        return Matrix._of(self.domain, self.rows, self.cols,
                          [[c * a for a in row] for row in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row-sparse product: each row of the result accumulates a * b
        over the nonzero a in the left row and the nonzero b in the
        matching right row, so zeros cost one truthiness test each."""
        if self.domain != other.domain:
            raise TypeError(f"domain mismatch {self.domain} @ {other.domain}")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        z = self.domain.zero
        sparse_rows = [[(j, b) for j, b in enumerate(row) if b]
                       for row in other.entries]
        out = []
        for row in self.entries:
            acc = [z] * other.cols
            for a, terms in zip(row, sparse_rows):
                if a:
                    for j, b in terms:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix._of(self.domain, self.rows, other.cols, out)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} applied to a "
                f"vector of length {len(vec)}")
        z = self.domain.zero
        out = []
        for row in self.entries:
            acc = z
            for a, x in zip(row, vec):
                if a:
                    acc = acc + a * x
            out.append(acc)
        return out

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.domain != other.domain:
            raise ValueError("hstack shape/domain mismatch")
        return Matrix._of(self.domain, self.rows, self.cols + other.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix._of(self.domain, len(row_idx), len(col_idx),
                          [[self.entries[i][j] for j in col_idx]
                           for i in row_idx])

    def map_entries(self, fn, domain: Domain | None = None) -> "Matrix":
        dom = domain or self.domain
        return Matrix(dom, self.rows, self.cols,
                      [[fn(x) for x in row] for row in self.entries])

    def _same_shape(self, other):
        if (self.domain != other.domain or self.rows != other.rows
                or self.cols != other.cols):
            raise ValueError("matrix shape/domain mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.domain}, {self.rows}x{self.cols}, [{body}])"


def _require_field(M: Matrix, op: str):
    if not M.domain.is_field:
        raise TypeError(f"{op} needs field entries, got {M.domain}; over "
                        "the local ring use degeneration.dvr_decompose")


def _rref(grid, rows, cols):
    """In-place Gauss-Jordan elimination, the kernel for F_p; returns the
    pivot column list.

    Pivot choice: for each column left to right, the first row (top to
    bottom among unused rows) whose entry is nonzero.  The result is the
    reduced row echelon form.
    """
    pivots = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if grid[i][j]:
                sel = i
                break
        if sel is None:
            continue
        grid[r], grid[sel] = grid[sel], grid[r]
        inv = grid[r][j]
        grid[r] = [x / inv for x in grid[r]]
        for i in range(rows):
            if i != r and grid[i][j]:
                c = grid[i][j]
                grid[i] = [a - c * b if b else a
                           for a, b in zip(grid[i], grid[r])]
        pivots.append(j)
        r += 1
    return pivots


def _int_rows(grid):
    """The nonzero rows of a grid of Fractions, each scaled to a primitive
    integer row: times the lcm of its denominators, over the gcd of the
    resulting numerators."""
    out = []
    for row in grid:
        if not any(row):
            continue
        ratios = list(map(Fraction.as_integer_ratio, row))
        nums = [x for x, _ in ratios]
        den = math.lcm(*[d for _, d in ratios])
        if den > 1:
            nums = [x * (den // d) for x, d in ratios]
        g = math.gcd(*nums)
        out.append([x // g for x in nums] if g > 1 else nums)
    return out


def _int_rref(g, cols, jordan=True):
    """Fraction-free Gauss-Jordan elimination over Q, in place on a list of
    nonzero primitive integer rows (``_int_rows``); returns the pivot
    column list.

    The pivot rule is that of ``_rref``.  With p the pivot, a row with a
    nonzero entry c in the pivot column becomes p * row - c * pivot_row
    divided by its content, and other rows are not touched.  Every row
    stays primitive, a multiple of the matching row of fraction-free
    Gauss-Jordan, so its entries stay bounded by minors of the input.
    Afterwards g[k] is a nonzero multiple of row k of the reduced row
    echelon form, and the zero rows are gone.  With jordan=False the rows
    above a pivot are not reduced; the pivot columns, all that rank and
    greedy extension need, are the same.
    """
    pivots = []
    r = 0
    n = len(g)
    for j in range(cols):
        if r == n:
            break
        for sel in range(r, n):
            if g[sel][j]:
                break
        else:
            continue
        g[r], g[sel] = g[sel], g[r]
        prow = g[r]
        p = prow[j]
        for i in range(0 if jordan else r + 1, n):
            row = g[i]
            c = row[j]
            if c and i != r:
                row = [p * a - c * b if b else p * a
                       for a, b in zip(row, prow)]
                d = math.gcd(*row)
                g[i] = [x // d for x in row] if d > 1 else row
        pivots.append(j)
        r += 1
    del g[r:]
    return pivots


def rref(M: Matrix):
    """Reduced row echelon form and pivot columns (deterministic)."""
    _require_field(M, "rref")
    if M.domain == QQ:
        g = _int_rows(M.entries)
        pivots = _int_rref(g, M.cols)
        # row k of the form: the integer pivot row k over its pivot
        z = QQ.zero
        grid = [[Fraction(x, row[j]) if x else z for x in row]
                for row, j in zip(g, pivots)]
        grid += [[z] * M.cols] * (M.rows - len(pivots))
    else:
        grid = [list(row) for row in M.entries]
        pivots = _rref(grid, M.rows, M.cols)
    return Matrix._of(M.domain, M.rows, M.cols, grid), pivots


def pivot_columns(M: Matrix) -> list[int]:
    """Pivot columns of the reduced row echelon form of M, without the
    form itself: over Q no Fraction is built and no row above a pivot is
    reduced."""
    _require_field(M, "pivot_columns")
    if M.domain == QQ:
        g = _int_rows(M.entries)
        return _int_rref(g, M.cols, jordan=False) if g else []
    return _rref([list(row) for row in M.entries], M.rows, M.cols)


def rank(M: Matrix) -> int:
    """Rank of a matrix over a field: the number of its pivot columns."""
    return len(pivot_columns(M))


def kernel_basis(M: Matrix) -> Matrix:
    """Columns form the deterministic basis of ker M.

    Free columns of the RREF, taken in ascending index order, each give a
    basis vector with a 1 in the free coordinate.
    """
    return _kernel_and_pivots(M)[0]


def _kernel_and_pivots(M: Matrix):
    """(kernel_basis(M), pivot_columns(M)) from one rref of M."""
    _require_field(M, "kernel_basis")
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [j for j in range(M.cols) if j not in pivot_set]
    z, o = M.domain.zero, M.domain.one
    grid = [[z] * len(free) for _ in range(M.cols)]
    for c, f in enumerate(free):
        grid[f][c] = o
        for k, p in enumerate(pivots):
            x = R.entries[k][f]
            if x:
                grid[p][c] = -x
    return Matrix._of(M.domain, M.cols, len(free), grid), pivots


def complete_basis(base: Matrix, candidates: Matrix | None = None):
    """(B, B^{-1}) for B = [base | C'], where C' greedily completes the
    independent columns of base to a basis: each candidate column that is
    independent of the columns before it.  One rref gives both.

    Let A = [base | candidates | 1].  Its pivot columns are the greedy
    choice, in order, and the identity block makes it of full row rank.
    If base is independent and base + candidates span, the pivots all lie
    outside the last block, and they are B.  The rref is E A for an
    invertible E, and it sends B's columns to e_0, e_1, ..., so E B = 1;
    its last block, E 1, is therefore B^{-1}.  A dependent base, or
    candidates that do not span, raise ValueError.
    """
    _require_field(base, "complete_basis")
    n, z, o = base.rows, base.domain.zero, base.domain.one
    A = base if candidates is None else base.hstack(candidates)
    width = A.cols
    R, pivots = rref(Matrix._of(A.domain, n, width + n, [
        row + tuple(o if i == j else z for j in range(n))
        for i, row in enumerate(A.entries)]))
    if pivots[:base.cols] != list(range(base.cols)):
        raise ValueError("dependent base columns: the matrix is singular")
    if pivots and pivots[-1] >= width:
        raise ValueError("the candidates do not complete the base to a basis")
    return (A.submatrix(range(n), pivots),
            R.submatrix(range(n), range(width, width + n)))


def inverse(M: Matrix) -> Matrix:
    """Inverse over a field: the basis M completed by no candidate."""
    _require_field(M, "inverse")
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    return complete_basis(M)[1]
