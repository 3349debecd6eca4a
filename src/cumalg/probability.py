"""Classical cumulants from moments, as arity-wise defects of an expectation.

The moments of one variable define a linear "expectation" from a truncated
polynomial algebra to the ground field (a one-dimensional algebra); the
homomorphism-defect coefficients of that map, evaluated on powers of the
variable, are exactly the cumulants.  A textbook recursion with no coalgebra
machinery serves as the independent oracle.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .algebra import (
    WEIGHT_CAP_CEILING,
    AlgebraPresentation,
    LinearMap,
    SchemaError,
    ValidationError,
    exact,
    field,
    reader,
    scalar_at,
)
from .coalgebra import WedgeMonomial
from .cumulant import defect_family


@reader(dict)
def parse_moments(doc) -> list:
    moments = field(doc, "moments", list)
    if not moments:
        raise SchemaError("moments list is empty", doc, "moments")
    return [scalar_at(moments, k) for k in range(len(moments))]


# one entry per moment count: the CLI refuses more moments than the weight
# cap, so a process running CLI jobs asks for n <= WEIGHT_CAP_CEILING
@lru_cache(maxsize=WEIGHT_CAP_CEILING)
def truncated_polynomial_algebra(n: int) -> AlgebraPresentation:
    """Powers x^1..x^n of one even variable, products truncated past x^n."""
    if n < 1:
        raise ValidationError("need at least one power")
    generators = [(f"x{k}", 0) for k in range(1, n + 1)]
    products = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a + b <= n:
                products[(a - 1, b - 1)] = {a + b - 1: 1}
    return AlgebraPresentation(generators, products)


@lru_cache(maxsize=None)
def ground_field_algebra() -> AlgebraPresentation:
    """The one-dimensional algebra spanned by an idempotent unit."""
    return AlgebraPresentation([("u", 0)], {(0, 0): {0: 1}})


def expectation_map(moments) -> LinearMap:
    """x^k -> m_k * u, the moment functional as a linear map."""
    n = len(moments)
    source = truncated_polynomial_algebra(n)
    target = ground_field_algebra()
    columns = {
        k: {0: moments[k]} for k in range(n) if moments[k] != 0
    }
    return LinearMap(source, target, 0, columns)


def cumulants_from_moments(moments) -> list:
    """One cumulant per moment, computed through the defect machinery.

    The j-th cumulant is the coefficient of the defect table at the j-fold
    wedge power of the variable.
    """
    moments = list(moments)
    n = len(moments)
    family = defect_family(expectation_map(moments), "hom", cap=n)
    return [family.coefficient(WedgeMonomial((0,) * j, (0,) * j)).get(0) for j in range(1, n + 1)]


def oracle_cumulants(moments) -> list:
    """The classical moment-cumulant recursion, free of coalgebra machinery."""
    moments = [exact(m) for m in moments]
    kappa = []
    for j in range(1, len(moments) + 1):
        value = moments[j - 1]
        for k in range(1, j):
            value -= math.comb(j - 1, k - 1) * kappa[k - 1] * moments[j - k - 1]
        kappa.append(value)
    return kappa
