"""Deformation retracts and the induced cumulant bijection on the retract.

Given a retract (i, I, s) of an algebra-with-differential onto a chain
complex, plus a square-zero coderivation on the complex side and a dg
coalgebra map extending i, the composite (extension of I)∘tau_tilde∘
(extension of iota) is again a cumulant-style bijection on the complex.
The algebra's transferred differential is the coderivation extending its
differential's derivation-defect tables, built without tau_tilde's inverse.
Every hypothesis and every certified property is checked exactly and
reported with witnesses; nothing is assumed.
"""
from __future__ import annotations

from .algebra import (
    AlgebraPresentation,
    AlgebraError,
    GradedBasis,
    LinearMap,
    SchemaError,
    ValidationError,
    _generators,
    field,
    parse_algebra,
    parse_linear_map,
    reader,
)
from .coalgebra import monomials_up_to
from .linalg import rank
from .morphisms import (
    CheckReport,
    SMap,
    TaylorFamily,
    check_comorphism,
    check_coderivation,
    check_filtration_one_identity,
    compare,
    extend_coalgebra_map,
    extend_coderivation,
    triangular_inverse,
)
from .cumulant import cumulant_context, defect_family


class ChainComplex(GradedBasis):
    """A finite graded basis with a degree -1 differential and no product.

    Used for the retract side of the transfer pipeline: keeping the product
    out of the type guarantees nothing downstream can multiply in it.
    """

    def __init__(self, generators, differential_columns=None):
        super().__init__(generators)
        self.differential = LinearMap(self, self, -1, differential_columns or {})
        _require_square_zero(self.differential)


@reader(dict)
def parse_chain_complex(doc) -> ChainComplex:
    cx = ChainComplex(_generators(doc))
    if doc.get("differential") is not None:
        diff = parse_linear_map(field(doc, "differential", dict), cx, cx)
        if diff.degree != -1:
            raise SchemaError("complex differential must have degree -1", doc, "differential")
        _require_square_zero(diff)
        cx.differential = diff
    return cx


def _require_square_zero(diff: LinearMap):
    square = diff.compose(diff)
    if square.columns:
        bad = sorted(diff.source.names[i] for i in square.columns)
        raise ValidationError(
            "differential does not square to zero",
            witness={"kind": "square_zero", "generators": bad},
        )


class TransferError(AlgebraError):
    """Raised when the transfer pipeline is run on failed hypotheses."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class RetractData:
    """A deformation retract of an algebra-with-differential onto a complex."""

    __slots__ = ("algebra", "d", "complex", "inclusion", "projection", "homotopy")

    def __init__(self, algebra: AlgebraPresentation, d: LinearMap, complex: ChainComplex,
                 inclusion: LinearMap, projection: LinearMap, homotopy: LinearMap):
        A, C = algebra, complex
        shapes = [
            (d, A, A, -1, "d"),
            (inclusion, C, A, 0, "i"),
            (projection, A, C, 0, "I"),
            (homotopy, A, A, 1, "s"),
        ]
        for m, src, tgt, deg, name in shapes:
            if m.source is not src or m.target is not tgt:
                raise ValidationError(f"map {name} has the wrong source or target")
            if m.degree != deg:
                raise ValidationError(f"map {name} must have degree {deg}")
        self.algebra = algebra
        self.d = d
        self.complex = complex
        self.inclusion = inclusion
        self.projection = projection
        self.homotopy = homotopy


class RetractReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_doc(self):
        return {"ok": self.ok, "checks": [c.to_doc() for c in self.checks]}


def _map_check(law: str, difference: LinearMap) -> CheckReport:
    witnesses = sorted(
        difference.source.names[i] for i in difference.columns
    )
    witness = {"generators": witnesses} if witnesses else None
    return CheckReport(law, not witnesses, len(difference.source), witness)


def validate_retract(r: RetractData) -> RetractReport:
    """Check every retract identity exactly, listing failing generators."""
    A, C = r.algebra, r.complex
    d, d_C = r.d, r.complex.differential
    i, I, s = r.inclusion, r.projection, r.homotopy
    id_A, id_C = LinearMap.identity(A), LinearMap.identity(C)
    checks = [
        _map_check("projection after inclusion is the identity", I.compose(i) - id_C),
        _map_check("inclusion is a chain map", i.compose(d_C) - d.compose(i)),
        _map_check("projection is a chain map", d_C.compose(I) - I.compose(d)),
        _map_check(
            "homotopy identity",
            d.compose(s) + s.compose(d) - (i.compose(I) - id_A),
        ),
        _map_check("differential squares to zero", d.compose(d)),
        _map_check("complex differential squares to zero", d_C.compose(d_C)),
    ]
    return RetractReport(checks)


class TransferInput:
    __slots__ = ("retract", "d_infinity", "iota")

    def __init__(self, retract: RetractData, d_infinity: TaylorFamily, iota: TaylorFamily):
        C, A = retract.complex, retract.algebra
        if d_infinity.source is not C or d_infinity.target is not C:
            raise ValidationError("d-infinity coefficients must live on the complex")
        if d_infinity.degree != -1:
            raise ValidationError("d-infinity must have degree -1")
        if iota.source is not C or iota.target is not A:
            raise ValidationError("iota coefficients must map the complex into the algebra")
        if iota.degree != 0:
            raise ValidationError("iota must have degree 0")
        self.retract = retract
        self.d_infinity = d_infinity
        self.iota = iota


class TransferReport:
    __slots__ = ("retract", "checks", "iota_hat", "d_inf")

    def __init__(self, retract: RetractReport, checks: list,
                 iota_hat: SMap | None = None, d_inf: SMap | None = None):
        self.retract = retract
        self.checks = checks
        # the extensions the checks ran on, reused by the pipeline with their caches
        self.iota_hat = iota_hat
        self.d_inf = d_inf

    @property
    def ok(self) -> bool:
        return self.retract.ok and all(c.ok for c in self.checks)

    def to_doc(self):
        return {
            "ok": self.ok,
            "retract": self.retract.to_doc(),
            "checks": [c.to_doc() for c in self.checks],
        }


def _difference_check(law: str, lhs: SMap, rhs: SMap) -> CheckReport:
    report = compare(law, lhs, rhs)
    # a transfer hypothesis or certification is stated on the whole capped
    # carrier, so like `_map_check` and `_injectivity_check` it reports the
    # carrier's size, failing or not, rather than the walk up to the witness
    report.checked = sum(1 for _ in monomials_up_to(lhs.source, lhs.cap))
    return report


def _injectivity_check(op: SMap) -> CheckReport:
    """Exact rank test: the operator's matrix on the capped carrier has full
    column rank."""
    columns = list(monomials_up_to(op.source, op.cap))
    images = [op.on_monomial(w) for w in columns]
    row_keys = sorted({m for img in images for m in img.terms}, key=lambda m: m.sort_key())
    matrix = [
        [img.terms.get(key, 0) for img in images] for key in row_keys
    ]
    got = rank(matrix)
    ok = got == len(columns)
    witness = None if ok else {"rank": got, "dimension": len(columns)}
    return CheckReport("extension is injective up to the cap", ok, len(columns), witness)


def transferred_differential(r: RetractData, cap: int) -> SMap:
    """Pull-conjugate of the bare coderivation of the algebra differential:
    the coderivation extending the differential's derivation-defect tables."""
    return extend_coderivation(defect_family(r.d, "der", cap), cap)


def validate_transfer_input(t: TransferInput, cap: int) -> TransferReport:
    """Check the transfer hypotheses on the capped carrier, with witnesses."""
    retract_report = validate_retract(t.retract)
    checks = []

    arity_one = t.iota.arity_one_map()
    diff = arity_one - t.retract.inclusion
    checks.append(_map_check("iota extends the inclusion", diff))

    d_inf = extend_coderivation(t.d_infinity, cap)
    checks.append(check_coderivation(d_inf))
    square = d_inf.compose(d_inf)
    checks.append(
        _difference_check("transferred coderivation squares to zero", square, 0 * square)
    )

    iota_hat = extend_coalgebra_map(t.iota, cap)
    d_tilde = transferred_differential(t.retract, cap)
    checks.append(
        _difference_check(
            "iota extension intertwines the differentials",
            iota_hat.compose(d_inf),
            d_tilde.compose(iota_hat),
        )
    )
    checks.append(_injectivity_check(iota_hat))

    return TransferReport(retract_report, checks, iota_hat, d_inf)


class TransferResult:
    __slots__ = ("cap", "tau_tilde_c", "inverse", "family", "hypotheses", "certifications")

    def __init__(self, cap: int, tau_tilde_c: SMap, inverse: SMap | None, family: TaylorFamily,
                 hypotheses: TransferReport, certifications: list | None = None):
        self.cap = cap
        self.tau_tilde_c = tau_tilde_c
        self.inverse = inverse
        self.family = family
        self.hypotheses = hypotheses
        self.certifications = [] if certifications is None else certifications

    @property
    def ok(self) -> bool:
        return self.hypotheses.ok and all(c.ok for c in self.certifications)

    def to_doc(self):
        return {
            "weight_cap": self.cap,
            "ok": self.ok,
            "hypotheses": self.hypotheses.to_doc(),
            "certifications": [c.to_doc() for c in self.certifications],
            "tau_tilde_c": self.tau_tilde_c.to_doc(),
            "taylor_family": self.family.to_doc(),
        }


def induced_cumulant_bijection(t: TransferInput, cap: int) -> TransferResult:
    """Compose, certify, and return the cumulant bijection on the retract.

    Refuses to produce a result when the hypotheses fail; the raised error
    carries the full validation report.
    """
    hypotheses = validate_transfer_input(t, cap)
    if not hypotheses.ok:
        raise TransferError("transfer hypotheses failed", hypotheses)

    A, C = t.retract.algebra, t.retract.complex
    iota_hat, d_inf = hypotheses.iota_hat, hypotheses.d_inf
    proj_hat = extend_coalgebra_map(
        TaylorFamily.from_linear_map(t.retract.projection), cap
    )
    tau_tilde_a = cumulant_context(A, cap).tau_tilde
    tau_tilde_c = proj_hat.compose(tau_tilde_a).compose(iota_hat)

    identity = check_filtration_one_identity(tau_tilde_c)
    comorphism = check_comorphism(tau_tilde_c)  # its extraction is the reported family
    certifications = [identity, comorphism]

    d_c_hat = extend_coderivation(
        TaylorFamily.from_linear_map(C.differential), cap
    )
    certifications.append(
        _difference_check(
            "intertwines the transferred coderivation with the complex differential",
            d_c_hat.compose(tau_tilde_c),
            tau_tilde_c.compose(d_inf),
        )
    )

    triangular, inverse = _triangular_and_invertible(tau_tilde_c)
    certifications.append(triangular)

    # certifications are reported, not re-raised: only bad hypotheses refuse
    return TransferResult(cap, tau_tilde_c, inverse, comorphism.family, hypotheses,
                          certifications)


def _triangular_and_invertible(op: SMap):
    law = "triangular and invertible"
    inverse = triangular_inverse(op)
    checked = 0
    for w in monomials_up_to(op.source, op.cap):
        checked += 1
        image = op.on_monomial(w)
        # lower monomials are already inverted and cached, so the only
        # failure left here is op not being triangular at w itself
        try:
            inverse.on_monomial(w)
        except ValidationError:
            witness = {"monomial": w.names(op.source), "lhs": image.to_doc()}
            return CheckReport(law, False, checked, witness), None
    ident = SMap.identity(op.source, op.cap)
    for composite in (inverse.compose(op), op.compose(inverse)):
        round_trip = compare(
            law, composite, ident, sides=lambda w: {"lhs": composite.on_monomial(w).to_doc()}
        )
        if not round_trip.ok:
            # the loop above walked the whole carrier, and that count stands
            return CheckReport(law, False, checked, round_trip.witness), None
    return CheckReport(law, True, checked), inverse


@reader(dict)
def parse_retract(doc) -> RetractData:
    A = parse_algebra(field(doc, "algebra", dict))
    C = parse_chain_complex(field(doc, "complex", dict))
    return RetractData(
        algebra=A,
        d=parse_linear_map(field(doc, "d", dict), A, A),
        complex=C,
        inclusion=parse_linear_map(field(doc, "i", dict), C, A),
        projection=parse_linear_map(field(doc, "I", dict), A, C),
        homotopy=parse_linear_map(field(doc, "s", dict), A, A),
    )


@reader(dict)
def parse_transfer_input(doc) -> TransferInput:
    retract = parse_retract(field(doc, "retract", dict))
    C, A = retract.complex, retract.algebra
    d_inf_doc = field(doc, "d_infinity", dict, {"degree": -1})
    return TransferInput(
        retract=retract,
        d_infinity=TaylorFamily.from_doc(d_inf_doc, C, C),
        iota=TaylorFamily.from_doc(field(doc, "iota", dict), C, A),
    )
