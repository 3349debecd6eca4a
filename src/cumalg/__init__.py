"""Exact-arithmetic cumulant bijections on graded commutative algebras.

The namespace is lazy (PEP 562): `cumalg.X` imports the module that defines X
on first use, so a process loads, and compiles, only the layers it uses.  A
name is read from its module on every access and never bound here, so
`cumalg.X` is always what the module holds now (a patch undone is undone
here too).
"""
import importlib

# every public name, by the layer module that defines it
_EXPORTS = {
    "algebra": """AlgebraError AlgebraPresentation ChainComplex DEFAULT_WEIGHT_CAP
        GradedBasis LinearMap SchemaError ValidationError Vector format_scalar
        linear_bracket parity_sign parse_algebra parse_chain_complex parse_linear_map""",
    "coalgebra": """SElement TaylorFamily WedgeMonomial
        canonical_monomials coproduct coproduct_element iterated_coproduct
        koszul_sign monomial monomials_up_to normalize_monomial set_partitions wedge""",
    "morphisms": """CheckReport SMap bracket check_coderivation check_comorphism
        check_filtration_one_identity extend_coalgebra_map extend_coderivation
        extract_family taylor_coefficient taylor_extract triangular_inverse""",
    "cumulant": """CumulantContext conjugate cumulant_context defect_family
        g2_closed_form g3_closed_form h2_closed_form h3_closed_form
        h3_seven_term_variant mobius_inverse_family tau tau_family tau_tilde_series
        vanishes_above_one""",
    "transfer": """RetractData TransferError TransferInput TransferReport TransferResult
        induced_cumulant_bijection parse_retract parse_transfer_input
        transferred_differential validate_retract validate_transfer_input""",
    "probability": """cumulants_from_moments expectation_map ground_field_algebra
        oracle_cumulants parse_moments truncated_polynomial_algebra""",
    "linalg": "rank solve",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
