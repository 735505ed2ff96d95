"""Reference constructions the tests check the solvers against.

Not collected by pytest (no ``test_`` prefix); the tests import it from
their own directory.
"""

from crfbench.hypercomplex import DIM, MUL_TABLE


def number_json(x):
    """The payload form of an exact number, as ``HPoly.to_json`` writes each
    coefficient: its algebra and each component's ``str``."""
    return {"algebra": x.algebra, "c": [str(c) for c in x.coeffs]}


def dbar_images(algebra, n, columns):
    """Image of each column (mu, beta) under the conjugate-Fueter system,
    generated lazily in column order.

    Column (mu, beta) is x^[mu] i_beta in the divided-power basis
    x^[mu] = x^mu / mu!, where d/dx_i x^[mu] = x^[mu - e_i].  Its image is
    {(h, nu, gamma): sign}: dbar_h x^[mu] i_beta has coefficient sign on
    x^[nu] i_gamma, with nu = mu - e_{d*h + alpha} and
    i_alpha * i_beta = sign * i_gamma.  Distinct alpha give distinct nu, so
    entries never collide and every one is -1 or +1.  The shifted
    exponents (h, alpha, nu) of a monomial serve every consecutive column
    with that mu.
    """
    d = DIM[algebra]
    table = MUL_TABLE[algebra]
    last = shifts = None
    for mu, beta in columns:
        if mu != last:
            last = mu
            shifts = []
            for h in range(n):
                for alpha in range(d):
                    i = d * h + alpha
                    if mu[i]:
                        shifts.append(
                            (h, alpha, mu[:i] + (mu[i] - 1,) + mu[i + 1:]))
        image = {}
        for h, alpha, nu in shifts:
            gamma, sign = table[alpha][beta]
            image[(h, nu, gamma)] = sign
        yield image


def _assemble(images, rhs):
    """Sparse rows, in sorted row-key order, of the system whose column j has
    image ``images[j]`` ({row key: value}); also the matching right-hand side
    values from ``rhs`` ({row key: value}, missing keys are 0)."""
    row_map = {}
    for j, image in enumerate(images):
        for key, c in image.items():
            row_map.setdefault(key, {})[j] = c
    for key in rhs:
        row_map.setdefault(key, {})
    keys = sorted(row_map)
    return [row_map[k] for k in keys], [rhs.get(k, 0) for k in keys]


# Tables no graded route can certify: the refusal every route raises, the
# (algebra, a, b) whose table has the sign of i_a i_b flipped, and a table
# off the index rule i_a i_b = +-i_{a XOR b}.
CLASS_REFUSAL = ("the multiplication table does not map class 0 onto every "
                 "class")
FLIPPED = [("H", a, b) for a in range(1, 4) for b in range(1, 4)] + [
    ("O", 2, 5), ("O", 7, 7)]


def with_sign_flipped(table, a, b):
    """``table`` with the sign of i_a i_b flipped."""
    rows = [list(row) for row in table]
    gamma, sign = rows[a][b]
    rows[a][b] = (gamma, -sign)
    return tuple(tuple(row) for row in rows)


def with_index_rule_broken(table):
    """``table`` with the products i_1 i_2 and i_1 i_3 swapped."""
    rows = [list(row) for row in table]
    rows[1][2], rows[1][3] = rows[1][3], rows[1][2]
    return tuple(tuple(row) for row in rows)
