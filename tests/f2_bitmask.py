"""A bit-mask span closure for 2x2 matrices over F_2.

A matrix is a 4-bit mask, its entries in row-major order from the high
bit, which is also its census id; a vector is a matrix, and the span is an
XOR basis.  It shares no code with matgen, so the tests check census
results against it as an independent reference.
"""

MUL2 = tuple(
    tuple(
        (((x >> 3 & 1) & (y >> 3 & 1)) ^ ((x >> 2 & 1) & (y >> 1 & 1))) << 3
        | (((x >> 3 & 1) & (y >> 2 & 1)) ^ ((x >> 2 & 1) & (y & 1))) << 2
        | (((x >> 1 & 1) & (y >> 3 & 1)) ^ ((x & 1) & (y >> 1 & 1))) << 1
        | (((x >> 1 & 1) & (y >> 2 & 1)) ^ ((x & 1) & (y & 1)))
        for y in range(16)
    )
    for x in range(16)
)


def generates_f2(mats) -> bool:
    slots = [0, 0, 0, 0]
    dim = 0

    def insert(v):
        nonlocal dim
        while v:
            hb = v.bit_length() - 1
            r = slots[hb]
            if r:
                v ^= r
            else:
                slots[hb] = v
                dim += 1
                return True
        return False

    frontier = [m for m in mats if insert(m)]
    while frontier and dim < 4:
        nxt = []
        for e in frontier:
            row = MUL2[e]
            for g in mats:
                if insert(row[g]):
                    nxt.append(row[g])
                p = MUL2[g][e]
                if insert(p):
                    nxt.append(p)
        frontier = nxt
    return dim == 4
