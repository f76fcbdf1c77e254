"""Plain list-matrix arithmetic: an independent reference for the tests,
which the engine itself never uses."""


def _mat_mul(a, b, field):
    """Plain product of list matrices of scalars over ``field``."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[field.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c.is_zero():
                continue
            for j in range(m):
                if not b[t][j].is_zero():
                    out[i][j] = out[i][j] + c * b[t][j]
    return out
