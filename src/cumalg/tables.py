"""The table reports: `lift`, `invert` and `defects`, from parsed inputs.

Each job computes every row of its table and returns the report payload
with the rows in a `_Table` node, which writes them as JSON text straight
from the rows (`json_text`) or gives them as a document (`to_doc`).  The
CLI reads and parses the input documents, and its writers hand the node
these two calls; only the table commands load this module.
"""
from __future__ import annotations

import json

from .algebra import Vector, format_scalar
from .coalgebra import WedgeMonomial, canonical_monomials, monomials_up_to
from .cumulant import cumulant_context, defect_family, vanishes_above_one

_quote = json.encoder.encode_basestring_ascii


class _Table:
    """The rows of a table report, each value computed by the job: a list of
    (monomial, value) pairs in canonical monomial order, or a dict of such
    lists keyed by arity as a string, a value being an `SElement` over
    `target` or a `Vector` of it.  `to_doc` gives the rows as `SMap.to_doc`
    does, or the "arities" of `TaylorFamily.to_doc`; `json_text` writes
    `json.dumps` of that document from the rows themselves."""

    __slots__ = ("source", "target", "rows")

    def __init__(self, source, target, rows):
        self.source = source
        self.target = target
        self.rows = rows

    def to_doc(self):
        def doc(rows):
            return [{"monomial": w.names(self.source), "value": value.to_doc()}
                    for w, value in rows]

        if type(self.rows) is dict:
            return {key: doc(rows) for key, rows in self.rows.items()}
        return doc(self.rows)

    def json_text(self, pad: str) -> str:
        """`json.dumps(self.to_doc(), sort_keys=True, indent=2)` nested after
        `pad`, the newline and indentation before the closing bracket,
        written from the rows: each basis name is quoted once, each value
        term's monomial name list is built once, and no row dict is built."""
        source = [_quote(name) for name in self.source.names]
        target = [_quote(name) for name in self.target.names]
        names: dict = {}  # monomial of `target` -> its name list as a value term's

        def name_list(w, quoted, at):
            inner = at + "  "
            return "[" + inner + ("," + inner).join([quoted[i] for i in w[0]]) + at + "]"

        def rows_text(rows, pad):
            if not rows:
                return "[]"
            row = pad + "  "       # each row's braces
            field = row + "  "     # "monomial" and "value"
            term = field + "  "    # each term's braces
            entry = term + "  "    # "coeff" and "gen" or "monomial"
            head, close = "{" + entry + '"coeff": "', term + "}"
            gen, mono = '",' + entry + '"gen": ', '",' + entry + '"monomial": '

            def term_names(w):
                text = names.get(w)
                if text is None:
                    text = names[w] = name_list(w, target, entry)
                return text

            texts = []
            for w, value in rows:
                terms = value.terms
                if not terms:
                    value_text = "[]"
                elif type(value) is Vector:
                    value_text = "[" + term + ("," + term).join(
                        [head + format_scalar(c) + gen + target[i] + close
                         for i, c in sorted(terms.items())]
                    ) + field + "]"
                else:
                    value_text = "[" + term + ("," + term).join(
                        [head + format_scalar(terms[u]) + mono + term_names(u) + close
                         for u in sorted(terms, key=WedgeMonomial.sort_key)]
                    ) + field + "]"
                texts.append("{" + field + '"monomial": ' + name_list(w, source, field) + ","
                             + field + '"value": ' + value_text + row + "}")
            return "[" + row + ("," + row).join(texts) + pad + "]"

        arities = self.rows
        if type(arities) is not dict:
            return rows_text(arities, pad)
        if not arities:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(key) + ": " + rows_text(arities[key], inner) for key in sorted(arities)]
        ) + pad + "}"


def lift(algebra, cap: int, inverse: bool = False):
    """The `lift` (or, inverse, the `invert`) payload: `τ̃` (or `τ̃⁻¹`) at
    every canonical monomial up to the cap, and true."""
    ctx = cumulant_context(algebra, cap)
    op = ctx.tau_tilde_inverse if inverse else ctx.tau_tilde
    rows = [(w, op.on_monomial(w)) for w in monomials_up_to(algebra, cap)]
    return {"table": _Table(algebra, algebra, rows)}, True


def defects(m, kind: str, cap: int):
    """The `defects` payload of a map: its defect tables of `kind` up to the
    cap and, for "der" from cap 3, the arity-3 comparison; and true."""
    family = defect_family(m, kind, cap=cap)
    arities = {
        str(arity): [(mono, table[mono]) for mono in sorted(table, key=WedgeMonomial.sort_key)]
        for arity, table in family.tables.items()
    }
    payload = {
        "kind": kind,
        "tables": {"degree": family.degree, "arities": _Table(m.source, m.target, arities)},
        "vanishes_above_1": vanishes_above_one(family),
    }
    if kind == "der" and cap >= 3:
        payload["arity3_comparison"] = _arity3_comparison(m, family)
    return payload, True


def _arity3_comparison(d, family):
    """Computed arity-3 table next to the seven-term variant expression
    (`oracles.h3_seven_term_variant`) at each word x·y·z of generators.  The
    pair products x·y are the product table's entries; each generator's
    image d(x) and each pair's image d(x·y) is computed once per report, so
    a row takes one `apply` and at most seven products, summed into one
    vector.

    Every term but the garbled y·x·d(x) is of degree |x·y·z| + |d|.  When A
    has no generator of that degree (the word is outside the family's
    window), the computed value and those terms are 0, and the row takes
    that one product alone."""
    A = d.source
    multiply, table, present = A.multiply, A.products, A.degree_set
    generators = A.generators()
    images = [d.apply(x) for x in generators]
    pair_images = [[d.apply(xy) for xy in row] for row in table]
    rows = []
    all_match = True
    for mono in canonical_monomials(A, 3):
        computed = family.coefficient(mono)
        i, j, k = mono[0]
        yx = table[j][i]
        if sum(mono[1]) + d.degree in present:
            x, y, z = generators[i], generators[j], generators[k]
            xy = table[i][j]
            variant = d.apply(multiply(xy, z))
            for scale, u, v in (
                (-1, pair_images[i][j], z), (1, xy, images[k]),
                (-1, pair_images[j][k], x), (1, yx, images[i]),
                (-1, pair_images[k][i], y), (1, table[k][i], images[j]),
            ):
                if u.terms and v.terms:
                    variant.accumulate(multiply(u, v), scale)
        elif yx.terms and images[i].terms:
            variant = multiply(yx, images[i])
        else:
            variant = computed
        match = computed == variant
        all_match = all_match and match
        rows.append(
            {
                "monomial": mono.names(A),
                "computed": computed.to_doc(),
                "variant": variant.to_doc(),
                "match": match,
            }
        )
    return {"variant_matches_everywhere": all_match, "rows": rows}
