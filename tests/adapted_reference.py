"""The brute-force construction of the adapted bases, kept as the oracle
for ``complexes._adapted_bases``, ``cohomology`` and ``split_canonical``.

Per degree: the kernel basis of D_i, the greedy complement W^i of the
kernel among the standard vectors (``complement_basis``, through
``extend_columns``), the greedy extension H^i of the image D_{i-1} W^{i-1}
inside the kernel, and the inverse of the basis [image | W^i | H^i].
The package reads W^i off the pivot columns of D_i instead, and takes H^i
and the inverse from one rref of [image | W^i | Ker D_i | 1].
"""

from varcom.linalg import Matrix, inverse, kernel_basis, pivot_columns


def extend_columns(domain, dim, base_cols, candidates):
    """Greedily extend base_cols by candidates that increase the rank.

    Returns the accepted candidates in input order: the pivot columns of
    [base | candidates] after the base.  base_cols must be independent.
    """
    base = [[domain.coerce(x) for x in col] for col in base_cols]
    cols = base + [[domain.coerce(x) for x in col] for col in candidates]
    grid = [[col[i] for col in cols] for i in range(dim)]
    pivots = pivot_columns(Matrix._of(domain, dim, len(cols), grid))
    if pivots[:len(base)] != list(range(len(base))):
        raise ValueError("dependent base columns")
    return [cols[j] for j in pivots[len(base):]]


def complement_basis(sub: Matrix, ambient_dim: int) -> Matrix:
    """Greedy complement of the column span of sub inside k^ambient_dim,
    built from standard basis vectors in index order."""
    if sub.rows != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    z, o = sub.domain.zero, sub.domain.one
    std = [[o if i == j else z for i in range(ambient_dim)]
           for j in range(ambient_dim)]
    chosen = extend_columns(sub.domain, ambient_dim, sub.columns(), std)
    return Matrix.from_columns(sub.domain, ambient_dim, chosen)


def adapted_bases(c):
    """(full_ranks, B, Binv) as ``complexes._adapted_bases`` returns them."""
    dims, dom = c.dims, c.domain
    m = dims.m
    kernels = [kernel_basis(d) for d in c.diffs]
    kernels.append(Matrix.identity(dom, dims[m]))
    full = [0] * (m + 2)
    B, Binv = [], []
    im_cols = []
    for i in range(m + 1):
        w_cols = (complement_basis(kernels[i], dims[i]).columns()
                  if i < m else [])
        full[i] = len(im_cols)
        h_cols = extend_columns(dom, dims[i], im_cols, kernels[i].columns())
        Bi = Matrix.from_columns(dom, dims[i], im_cols + w_cols + h_cols)
        B.append(Bi)
        Binv.append(inverse(Bi))
        if i < m:
            im_cols = [c.diffs[i].apply(w) for w in w_cols]
    return tuple(full), tuple(B), tuple(Binv)
