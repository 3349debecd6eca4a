"""Seeded input documents for the benchmark workloads.

Everything here is plain JSON built from a `random.Random`; nothing imports
the program, so the program only ever sees the generated documents.  The
same seed gives byte-identical documents.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

MOMENTS_ORDER = 7
GRADED_CAP = 3
SESSION_CAP = 4
SESSION_CUMULANTS = 6
SESSION_TRANSFER_CAP = 5


def q(x) -> str:
    return str(Fraction(x))


def vec(pairs) -> list:
    return [{"gen": g, "coeff": q(c)} for g, c in pairs if c != 0]


# --- algebras -------------------------------------------------------------

def exterior_algebra(k: int, prefix: str = "e") -> dict:
    """Exterior algebra on k odd degree-1 generators, spanned by e_S, S != {}.

    e_S e_T is the Koszul sign of sorting S+T times e_{S u T} when S and T
    are disjoint, and 0 otherwise.
    """
    subsets = [s for r in range(1, k + 1) for s in itertools.combinations(range(k), r)]
    name = {s: prefix + "".join(str(i + 1) for i in s) for s in subsets}
    products = []
    for a, s in enumerate(subsets):
        for t in subsets[a:]:
            if set(s) & set(t):
                continue
            word = s + t
            inversions = sum(1 for i, j in itertools.combinations(range(len(word)), 2)
                             if word[i] > word[j])
            products.append({"left": name[s], "right": name[t],
                             "value": vec([(name[tuple(sorted(word))], (-1) ** inversions)])})
    return {"generators": [{"name": name[s], "degree": len(s)} for s in subsets],
            "products": products}


def truncated_polynomial(n: int, prefix: str = "x") -> dict:
    """x1..xn of degree 0 with x_a x_b = x_{a+b}, products past xn dropped."""
    gens = [{"name": f"{prefix}{a}", "degree": 0} for a in range(1, n + 1)]
    products = [{"left": f"{prefix}{a}", "right": f"{prefix}{b}",
                 "value": vec([(f"{prefix}{a + b}", 1)])}
                for a in range(1, n + 1) for b in range(a, n + 1) if a + b <= n]
    return {"generators": gens, "products": products}


def e2_algebra() -> dict:
    """Two odd generators and their product: a*b = g."""
    return {"generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1},
                           {"name": "g", "degree": 2}],
            "products": [{"left": "a", "right": "b", "value": vec([("g", 1)])}]}


def _inverse(m):
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [inv * x for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _block_matrix(rng, n):
    """D*L with D diagonal in {2, 3} and L unit lower bidiagonal with +-1
    below the diagonal: always invertible, with denominators in its inverse
    and the same fill for every seed, so seeds change values, not sizes."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        d = rng.choice((2, 3))
        m[i][i] = d
        if i:
            m[i][i - 1] = d * rng.choice((-1, 1))
    return m


def change_basis(rng, doc: dict, prefix: str) -> dict:
    """Transport an algebra through a random degree-preserving change of basis.

    New generator i is sum_a M[i][a] * old_a, with M block diagonal by degree;
    the products are rewritten in the new basis, so the structure constants
    become dense rationals while the algebra stays the same up to isomorphism.
    """
    names = [g["name"] for g in doc["generators"]]
    degrees = [g["degree"] for g in doc["generators"]]
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}
    table = {}
    for p in doc["products"]:
        i, j = index[p["left"]], index[p["right"]]
        value = {index[e["gen"]]: Fraction(e["coeff"]) for e in p["value"]}
        table[(i, j)] = value
        sign = -1 if degrees[i] % 2 and degrees[j] % 2 else 1
        table.setdefault((j, i), {k: sign * c for k, c in value.items()})
    m = [[Fraction(0)] * n for _ in range(n)]
    minv = [[Fraction(0)] * n for _ in range(n)]
    for d in sorted(set(degrees)):
        block = [i for i in range(n) if degrees[i] == d]
        bm = _block_matrix(rng, len(block))
        bi = _inverse(bm)
        for r, i in enumerate(block):
            for c, j in enumerate(block):
                m[i][j] = Fraction(bm[r][c])
                minv[i][j] = bi[r][c]
    new = [f"{prefix}{i + 1}" for i in range(n)]
    products = []
    for i in range(n):
        for j in range(i, n):
            old = [Fraction(0)] * n
            for a in range(n):
                if m[i][a] == 0:
                    continue
                for b in range(n):
                    if m[j][b] == 0:
                        continue
                    for k, c in table.get((a, b), {}).items():
                        old[k] += m[i][a] * m[j][b] * c
            coeffs = [sum(old[k] * minv[k][l] for k in range(n)) for l in range(n)]
            value = vec((new[l], coeffs[l]) for l in range(n))
            if value:
                products.append({"left": new[i], "right": new[j], "value": value})
    return {"generators": [{"name": new[i], "degree": degrees[i]} for i in range(n)],
            "products": products}


# --- maps, families and moments ---------------------------------------------

def degree_zero_map(rng, algebra: dict) -> dict:
    """A degree-0 endomorphism: each generator goes to a multiple of itself
    plus a multiple of the next generator of its degree (cyclically), with
    multipliers in {+-1, +-2}."""
    gens = algebra["generators"]
    entries = []
    for g in gens:
        same = [h["name"] for h in gens if h["degree"] == g["degree"]]
        k = same.index(g["name"])
        pairs = [(g["name"], rng.choice((-2, -1, 1, 2)))]
        if len(same) > 1:
            pairs.append((same[(k + 1) % len(same)], rng.choice((-2, -1, 1, 2))))
        entries.append({"gen": g["name"], "value": vec(pairs)})
    return {"source": algebra, "degree": 0, "entries": entries}


def canonical_monomials(algebra: dict, weight: int):
    """Sorted index tuples in which no odd-degree index repeats."""
    degrees = [g["degree"] for g in algebra["generators"]]
    for combo in itertools.combinations_with_replacement(range(len(degrees)), weight):
        if any(combo[i] == combo[i + 1] and degrees[combo[i]] % 2
               for i in range(weight - 1)):
            continue
        yield combo


def random_family(rng, algebra: dict, degree: int, max_arity: int) -> dict:
    """A Taylor-family document: one random homogeneous value per monomial."""
    gens = algebra["generators"]
    arities = {}
    for arity in range(1, max_arity + 1):
        rows = []
        for combo in canonical_monomials(algebra, arity):
            want = sum(gens[i]["degree"] for i in combo) + degree
            value = vec((h["name"], Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                        for h in gens if h["degree"] == want)
            if value:
                rows.append({"monomial": [gens[i]["name"] for i in combo], "value": value})
        if rows:
            arities[str(arity)] = rows
    return {"degree": degree, "arities": arities}


def moments(rng, order: int) -> dict:
    """Nonzero rational moments with one-digit numerators and denominators."""
    return {"moments": [q(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
                        for _ in range(order)]}


# --- the k2 retract ---------------------------------------------------------

def k2_transfer(broken: bool = False) -> dict:
    """A three-dimensional algebra squeezed onto a point, as a transfer job.

    With `broken`, iota loses its weight-2 correction, so the intertwining
    hypothesis fails at c^c and the CLI must refuse with a witness.
    """
    algebra = {"generators": [{"name": "c", "degree": 0}, {"name": "b", "degree": 0},
                              {"name": "a", "degree": -1}],
               "products": [{"left": "c", "right": "c", "value": vec([("b", 1)])}]}
    one = lambda src, dst: [{"gen": src, "value": vec([(dst, 1)])}]  # noqa: E731
    iota = {"1": [{"monomial": ["c"], "value": vec([("c", 1)])}],
            "2": [{"monomial": ["c", "c"], "value": vec([("b", -1)])}]}
    if broken:
        del iota["2"]
    return {"retract": {"algebra": algebra,
                        "complex": {"generators": [{"name": "c", "degree": 0}]},
                        "d": {"degree": -1, "entries": one("b", "a")},
                        "i": {"degree": 0, "entries": one("c", "c")},
                        "I": {"degree": 0, "entries": one("c", "c")},
                        "s": {"degree": 1,
                              "entries": [{"gen": "a", "value": vec([("b", -1)])}]}},
            "d_infinity": {"degree": -1, "arities": {}},
            "iota": {"degree": 0, "arities": iota}}
