"""The dense Smith normal form, kept as the oracle for the sparse one.

``smith_normal_form`` here is the reduction ``coretorus.homology`` ran on
dense lists of lists before it moved to sparse rows: the same pivot rule and
the same row and column operations, applied to every entry, with V and V^-1
tracked too.  ``sparse_result`` reads from it what the sparse reduction
returns, and tests assert that the two agree.
"""


def mat_mul(A, B):
    if not A or not B:
        return []
    n = len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(n)]
            for i in range(len(A))]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Return (D, U, Uinv, V, Vinv) with U*A*V = D in Smith normal form."""
    m = len(A)
    n = len(A[0]) if m else 0
    D = [row[:] for row in A]
    U, Uinv = _identity(m), _identity(m)
    V, Vinv = _identity(n), _identity(n)

    def row_add(i, j, c):          # row_i += c * row_j
        for k in range(n):
            D[i][k] += c * D[j][k]
        for k in range(m):
            U[i][k] += c * U[j][k]
            Uinv[k][j] -= c * Uinv[k][i]

    def col_add(j, i, c):          # col_j += c * col_i
        for k in range(m):
            D[k][j] += c * D[k][i]
        for k in range(n):
            V[k][j] += c * V[k][i]
            Vinv[i][k] -= c * Vinv[j][k]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for k in range(m):
            Uinv[k][i], Uinv[k][j] = Uinv[k][j], Uinv[k][i]

    def col_swap(i, j):
        for k in range(m):
            D[k][i], D[k][j] = D[k][j], D[k][i]
        for k in range(n):
            V[k][i], V[k][j] = V[k][j], V[k][i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_neg(i):
        for k in range(n):
            D[i][k] = -D[i][k]
        for k in range(m):
            U[i][k] = -U[i][k]
            Uinv[k][i] = -Uinv[k][i]

    t = 0
    while True:
        # the first entry of least absolute value in row-major order; a unit
        # is such an entry, so the scan stops at the first one
        pivot, least = None, None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                a = abs(row[j])
                if a and (least is None or a < least):
                    pivot, least = (i, j), a
                    if a == 1:
                        break
            if least == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if D[t][t] < 0:
            row_neg(t)
        clean = True
        for i in range(t + 1, m):
            if D[i][t] != 0:
                row_add(i, t, -(D[i][t] // D[t][t]))
                if D[i][t] != 0:
                    clean = False
        for j in range(t + 1, n):
            if D[t][j] != 0:
                col_add(j, t, -(D[t][j] // D[t][t]))
                if D[t][j] != 0:
                    clean = False
        if not clean:
            continue
        if D[t][t] == 1:
            t += 1
            continue
        # enforce divisibility d_t | D[i][j] for the trailing block
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return D, U, Uinv, V, Vinv


def sparse_result(A):
    """(factors, U, Uinv) of the dense reduction of A, as the sparse one
    returns them: the m diagonal entries (0 past min(m, n)), the nonzero
    entries of each row of U and of each column of U^-1."""
    D, U, Uinv, _, _ = smith_normal_form(A)
    m = len(A)
    return ([D[i][i] if i < len(D[i]) else 0 for i in range(m)],
            [{k: x for k, x in enumerate(row) if x} for row in U],
            [{k: Uinv[k][j] for k in range(m) if Uinv[k][j]} for j in range(m)])
