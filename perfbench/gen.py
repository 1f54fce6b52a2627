"""Seeded even lattices for the `lattice-info` and `glue` workloads.

Every generated lattice is L = U^T D U: D is block diagonal with one
block [[+-2p]] for a prime p in [10^3, 10^5] (so the O(p) residue scan
of the glue-map search is visible), a few small discriminant blocks
(+-A1, +-A2) and unimodular fill (H, +-E8); U is a seeded unimodular
matrix. The file's isometry is U^-1 T_D U for a blockwise isometry T_D
of D (+-1, reflections, the order-3 rotation of A2, the swap of H).

The glue workloads glue L with L(-1). By Nikulin's discriminant-form
theory that pair always glues along the identity anti-isometry, so every
positive pair has a known outcome. Negative pairs change one thing:
the prime of the big block (glue groups of different order) or the
sign of the isometry on it (cyclic actions differ).

The generator bounds what makes a job slow: at most three +-A1 blocks
(2-part at most (2,2,2,2)), at most two +-A2 blocks (3-part at most
(3,3)), and p < 1.1 * 10^5. At those limits the slowest job measured on
a 2-core x86 box with Python 3.11 took about 6 s, well inside the
benchmark's 60 s job timeout.
"""

import math

A2 = ((2, -1), (-1, 2))
H = ((0, 1), (1, 0))
# Cartan matrix of E8: chain 0-1-2-3-4-5-6, node 7 attached to node 4
E8 = tuple(
    tuple(
        2 if i == j else -1 if {i, j} in ({0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {4, 7}) else 0
        for j in range(8)
    )
    for i in range(8)
)
#: name: (Gram matrix, signature, determinant) of the positive block;
#: "big" is [[2p]], filled in per lattice
BLOCKS = {
    "A1": (((2,),), (1, 0), 2),
    "A2": (A2, (2, 0), 3),
    "H": (H, (1, 1), -1),
    "E8": (E8, (8, 0), 1),
}

MAX_A1 = 3
MAX_A2 = 2


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_near(rng, log10):
    """A prime drawn near 10**log10."""
    n = int(10 ** log10)
    n += rng.randrange(n // 10 + 1)
    while not is_prime(n):
        n += 1
    return n


def _block_isometry(rng, name, gram):
    """A random integral isometry of one block, as rows."""
    n = len(gram)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    choice = rng.randrange(3)
    if choice == 0:
        return ident
    if choice == 1:
        return [[-x for x in row] for row in ident]
    if name == "A2":
        return [[0, -1], [1, -1]]  # a -> b, b -> -a-b
    if name == "H":
        return [[0, 1], [1, 0]]
    # reflection in a basis vector r with b(r, r) = +-2: x -> x -+ b(x, r) r
    i = rng.randrange(n)
    if abs(gram[i][i]) != 2:
        return ident
    sign = 1 if gram[i][i] == 2 else -1
    m = [row[:] for row in ident]
    for j in range(n):
        m[i][j] -= sign * gram[i][j]
    return m


def plan_blocks(rng, rank, n_a1, n_a2):
    """Block list [(name, sign)] of total size `rank` >= 6, shuffled: the
    big block, n_a2 +-A2, n_a1 +-A1 (one more or fewer to fix parity),
    and H / +-E8 fill."""
    blocks = [("big", rng.choice((1, -1)))]
    blocks += [("A2", rng.choice((1, -1))) for _ in range(n_a2)]
    size = 1 + 2 * n_a2
    if (rank - size - n_a1) % 2:
        n_a1 += 1 if n_a1 < MAX_A1 else -1
    while size + n_a1 > rank:
        n_a1 -= 2
    blocks += [("A1", rng.choice((1, -1))) for _ in range(n_a1)]
    size += n_a1
    while rank - size >= 8 and rng.random() < 0.5:
        blocks.append(("E8", rng.choice((1, -1))))
        size += 8
    blocks += [("H", 1)] * ((rank - size) // 2)
    rng.shuffle(blocks)
    return blocks


def unimodular(rng, n):
    """(U, U^-1) for a seeded product of elementary and signed permutation
    matrices with small entries."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        # U <- E U with E = I + c e_i e_j^T; U^-1 <- U^-1 E^-1
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for r in range(n):
            uinv[r][j] -= c * uinv[r][i]
    perm = list(range(n))
    rng.shuffle(perm)
    u = [u[perm[k]] for k in range(n)]
    uinv = [[row[perm[k]] for k in range(n)] for row in uinv]
    return u, uinv


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def build_lattice(rng, blocks, p, flip_big=False):
    """Gram and isometry rows of U^T D U, plus D's invariants.

    `flip_big` negates the isometry on the big block, leaving the rest.
    """
    table = dict(BLOCKS, big=(((2 * p,),), (1, 0), 2 * p))
    rank = sum(len(table[name][0]) for name, _ in blocks)
    d = [[0] * rank for _ in range(rank)]
    t = [[0] * rank for _ in range(rank)]
    plus = minus = 0
    det = 1
    at = 0
    for name, sign in blocks:
        gram, (n_plus, n_minus), block_det = table[name]
        n = len(gram)
        iso = _block_isometry(rng, name, gram)
        if name == "big" and flip_big:
            iso = [[-iso[0][0]]]
        for i in range(n):
            for j in range(n):
                d[at + i][at + j] = sign * gram[i][j]
                t[at + i][at + j] = iso[i][j]
        at += n
        plus += n_plus if sign > 0 else n_minus
        minus += n_minus if sign > 0 else n_plus
        det *= block_det * sign**n
    u, uinv = unimodular(rng, rank)
    return {
        "gram": _matmul(_matmul(_transpose(u), d), u),
        "isometry": _matmul(_matmul(uinv, t), u),
        "rank": rank,
        "det": det,
        "signature": [plus, minus],
        "blocks": [("+" if sign > 0 else "-") + (f"2*{p}" if name == "big" else name) for name, sign in blocks],
    }


def glue_shape(blocks, p):
    """Glue-group orders by prime, as D's blocks give them."""
    n_a1 = sum(1 for name, _ in blocks if name == "A1")
    n_a2 = sum(1 for name, _ in blocks if name == "A2")
    shape = {2: [2] * (1 + n_a1), p: [p]}
    if n_a2:
        shape[3] = [3] * n_a2
    return {str(q): shape[q] for q in sorted(shape)}


def format_lattice(gram, iso, negate=False):
    s = -1 if negate else 1
    lines = [f"rank {len(gram)}", "gram"]
    lines += [" ".join(str(s * x) for x in row) for row in gram]
    lines.append("isometry")
    lines += [" ".join(str(x) for x in row) for row in iso]
    return "\n".join(lines) + "\n"
