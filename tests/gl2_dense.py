"""The GL_2(F_p) conjugator sweep that compares every cell of the grid.

This is matgen's conjugacy sweep as it stood before it learned to skip
the rows whose key occurs nowhere in the other half: the same forms, codes
and ranks, but all p^2 x p^2 cells of the (x1, x2 | x3, x4) grid are
compared and masked by det C != 0.  It shares no code with matgen, so the
tests check the filtered sweep's witnesses against it.
"""

import numpy as np

_CODE_LIMIT = 1 << 62


def dense_sweep(tuple_a, tuple_b, p):
    """The rows of the lexicographically first C in GL_2(F_p) with
    C A_i = B_i C (mod p) for every i, or None."""
    half = p * p
    y1, y2 = np.divmod(np.arange(half, dtype=np.int64), p)
    ok = (np.outer(y1, y2) - np.outer(y2, y1)) % p != 0
    forms = []
    for a, b in zip(tuple_a.mats, tuple_b.mats):
        (a1, a2), (a3, a4) = a.rows
        (b1, b2), (b3, b4) = b.rows
        forms += [[x % p for x in form] for form in (
            (a1 - b1, a3, b2, 0), (a2, a4 - b1, 0, b2),
            (b3, 0, a1 - b4, a3), (0, b3, a2, a4 - b4))]
    coef = np.array(forms, dtype=np.int64).reshape(-1, 2, 2, 1)
    res = ((coef[:, :, 0] * y1 + coef[:, :, 1] * y2) % p).reshape(-1, 2 * half)
    per_code = 1
    while p ** (per_code + 1) <= _CODE_LIMIT:
        per_code += 1
    codes = [p ** np.arange(len(run), dtype=np.int64) @ run
             for run in (res[s:s + per_code] for s in range(0, len(forms), per_code))]
    if len(codes) == 1 and p ** len(forms) < 1 << 31:
        key = codes[0]
    else:
        key = np.unique(codes[0], return_inverse=True)[1]
        for code in codes[1:]:
            rank = np.unique(code, return_inverse=True)[1]
            key = np.unique(key * (2 * half) + rank, return_inverse=True)[1]
    hit = (key[:half, None] == key[None, half:]) & ok
    idx = int(hit.argmax())
    if not hit.flat[idx]:
        return None
    (x1, x2), (x3, x4) = (divmod(h, p) for h in divmod(idx, half))
    return ((x1, x2), (x3, x4))
