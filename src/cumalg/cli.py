"""Batch front door: load JSON documents, run one job, write one report.

Reports are deterministic: canonical key order, tables in canonical monomial
order, no timestamps.  Exit codes: 0 success, 1 validation failure, 2 usage
error.

Each handler imports the layers its command runs, so a process loads (and
compiles) only those; this module imports only what every command shares.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import (
    DEFAULT_WEIGHT_CAP, AlgebraError, Vector, field, format_scalar, parse_algebra,
    parse_linear_map, reader,
)

WEIGHT_CAP_CEILING = 10
# why a cap past the ceiling is refused and one of 8 or more warned about
_LARGE_CAP = ("tables hold every canonical monomial up to the cap, and a word of n distinct "
              "factors sums over the 2^(n-1) blocks that hold its first factor")
ROLES = ("algebra", "map", "retract", "transfer", "moments")
# the input roles each command opens; any other role given is a usage error
READS = {
    "validate": ("algebra", "retract"),
    "lift": ("algebra",),
    "invert": ("algebra",),
    "defects": ("map",),
    "transfer": ("transfer",),
    "cumulants": ("moments",),
}


class UsageError(Exception):
    pass


_STDOUT_UNWRITABLE = "cannot write the report to standard output"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and `--input` appends to a fresh copy of its default."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--weight-cap", type=int, default=DEFAULT_WEIGHT_CAP, metavar="N",
        help=f"truncation weight (default {DEFAULT_WEIGHT_CAP}, ceiling {WEIGHT_CAP_CEILING})",
    )
    common.add_argument(
        "--input", action="append", default=[], metavar="ROLE=PATH",
        help="role-tagged input document; roles: " + ", ".join(ROLES),
    )
    common.add_argument("--output", metavar="PATH", help="report destination (default stdout)")
    common.add_argument("--format", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(
        prog="cumalg",
        description="Exact cumulant bijections on graded commutative algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="check algebra and retract laws")
    sub.add_parser("lift", parents=[common], help="tabulate the cumulant bijection")
    sub.add_parser("invert", parents=[common], help="tabulate its inverse")
    defects = sub.add_parser("defects", parents=[common], help="defect coefficient tables")
    defects.add_argument("--kind", choices=("hom", "der"), required=True)
    sub.add_parser("transfer", parents=[common], help="run the retract pipeline")
    sub.add_parser("cumulants", parents=[common], help="moments to cumulants")
    return parser


def _parse_inputs(command: str, pairs) -> dict:
    reads = READS[command]
    inputs = {}
    for item in pairs:
        role, sep, path = item.partition("=")
        if not sep or role not in ROLES:
            raise UsageError(f"--input must look like role=path with role in {ROLES}")
        if role not in reads:
            raise UsageError(f"{command} reads only {' and '.join(reads)}, not {role}")
        if role in inputs:
            raise UsageError(f"role {role!r} given twice")
        inputs[role] = path
    if not inputs:
        raise UsageError(
            f"{command} needs --input " + " and/or ".join(f"{r}=<path>" for r in reads)
        )
    return inputs


def _load_json(path) -> bytes:
    """The bytes of a JSON document file, which its reader parses once."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from None


@reader(dict)
def _read_map(doc):
    """A map document: a linear map with its source algebra inline, and its
    target algebra when that differs."""
    source = parse_algebra(field(doc, "source", dict))
    if doc.get("target", doc["source"]) == doc["source"]:
        return parse_linear_map(doc, source, source)
    return parse_linear_map(doc, source, parse_algebra(field(doc, "target", dict)))


def cmd_validate(args, inputs):
    results = {}
    ok = True
    if "algebra" in inputs:
        doc = _load_json(inputs["algebra"])
        algebra = parse_algebra(doc)
        results["algebra"] = {"ok": True, "generators": len(algebra)}
    if "retract" in inputs:
        from .transfer import parse_retract, validate_retract

        retract = parse_retract(_load_json(inputs["retract"]))
        report = validate_retract(retract)
        results["retract"] = report.to_doc()
        ok = ok and report.ok
    return {"results": results}, ok


class _Table:
    """The rows of a table report, each value computed by the handler: a
    list of (monomial, value) pairs in canonical monomial order, or a dict of
    such lists keyed by arity as a string, a value being an `SElement` over
    `target` or a `Vector` of it.  `to_doc` gives the rows as `SMap.to_doc`
    does, or the "arities" of `TaylorFamily.to_doc`; `_json_text` writes the
    same text from the rows themselves."""

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


def cmd_lift(args, inputs, inverse=False):
    from .coalgebra import monomials_up_to
    from .cumulant import cumulant_context

    algebra = parse_algebra(_load_json(inputs["algebra"]))
    ctx = cumulant_context(algebra, args.weight_cap)
    op = ctx.tau_tilde_inverse if inverse else ctx.tau_tilde
    rows = [(w, op.on_monomial(w)) for w in monomials_up_to(algebra, args.weight_cap)]
    return {"table": _Table(algebra, algebra, rows)}, True


def cmd_defects(args, inputs):
    from .coalgebra import WedgeMonomial
    from .cumulant import defect_family, vanishes_above_one

    m = _read_map(_load_json(inputs["map"]))
    family = defect_family(m, args.kind, cap=args.weight_cap)
    arities = {
        str(arity): [(mono, table[mono]) for mono in sorted(table, key=WedgeMonomial.sort_key)]
        for arity, table in family.tables.items()
    }
    payload = {
        "kind": args.kind,
        "tables": {"degree": family.degree, "arities": _Table(m.source, m.target, arities)},
        "vanishes_above_1": vanishes_above_one(family),
    }
    if args.kind == "der" and args.weight_cap >= 3:
        payload["arity3_comparison"] = _arity3_comparison(m, family)
    return payload, True


def _arity3_comparison(d, family):
    """Computed arity-3 table next to the seven-term variant expression
    (`h3_seven_term_variant`) at each word x·y·z of generators.  The pair
    products x·y are the product table's entries; each generator's image
    d(x) and each pair's image d(x·y) is computed once per report, so a row
    takes one `apply` and at most seven products, summed into one vector.

    Every term but the garbled y·x·d(x) is of degree |x·y·z| + |d|.  When A
    has no generator of that degree (the word is outside the family's
    window), the computed value and those terms are 0, and the row takes
    that one product alone."""
    from .coalgebra import canonical_monomials

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


def cmd_transfer(args, inputs):
    from .transfer import TransferError, induced_cumulant_bijection, parse_transfer_input

    t = parse_transfer_input(_load_json(inputs["transfer"]))
    try:
        result = induced_cumulant_bijection(t, args.weight_cap)
    except TransferError as err:
        report = err.report.to_doc() if err.report is not None else {}
        return {"error": str(err), "report": report}, False
    return {"report": result.to_doc()}, result.ok


def cmd_cumulants(args, inputs):
    from .probability import cumulants_from_moments, oracle_cumulants, parse_moments

    moments = parse_moments(_load_json(inputs["moments"]))
    if len(moments) > args.weight_cap:
        raise AlgebraError(
            f"{len(moments)} moments exceed the weight cap {args.weight_cap}"
        )
    kappa = cumulants_from_moments(moments)
    reference = oracle_cumulants(moments)
    agree = kappa == reference
    payload = {
        "order": len(moments),
        "cumulants": [format_scalar(k) for k in kappa],
        "oracle": [format_scalar(k) for k in reference],
        "agree": agree,
    }
    return payload, agree


def _render_text(value, indent=0, key=None):
    if type(value) is _Table:
        value = value.to_doc()
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key is not None else []
        for k in sorted(value):
            lines.extend(_render_text(value[k], indent + (1 if key is not None else 0), k))
        return lines
    if isinstance(value, list):
        lines = [f"{pad}{key}: ({len(value)} entries)"] if key is not None else []
        for item in value:
            sub = _render_text(item, indent + 1)
            if sub and not isinstance(item, (dict, list)):
                lines.append("  " * (indent + 1) + "- " + json.dumps(item))
            else:
                lines.extend(sub)
        return lines
    return [f"{pad}{label}{json.dumps(value)}"]


_quote = json.encoder.encode_basestring_ascii


def _json_text(value, pad="\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for str-keyed dicts,
    lists, strings, ints, booleans and None, byte for byte, and for a
    `_Table` the same of its `to_doc()`.  CPython's C encoder does not take
    `indent`, so json.dumps with it runs the pure-Python encoder; this joins
    the same pieces with far fewer Python-level calls.  `pad` is the newline
    and indentation that precede `value`'s closing bracket."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        ) + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(
            [_json_text(item, inner) for item in value]
        ) + pad + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is _Table:
        return _table_text(value, pad)
    raise TypeError(f"report value of type {kind.__name__} is not JSON")


def _table_text(table: _Table, pad: str) -> str:
    """`_json_text(table.to_doc(), pad)`, written from the rows: each basis
    name is quoted once, each value term's monomial name list is built once,
    and no row dict is built."""
    from .coalgebra import WedgeMonomial

    source = [_quote(name) for name in table.source.names]
    target = [_quote(name) for name in table.target.names]
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

    arities = table.rows
    if type(arities) is not dict:
        return rows_text(arities, pad)
    if not arities:
        return "{}"
    inner = pad + "  "
    return "{" + inner + ("," + inner).join(
        [_quote(key) + ": " + rows_text(arities[key], inner) for key in sorted(arities)]
    ) + pad + "}"


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = _json_text(report) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write {args.output}: {err}") from None
    else:
        try:
            sys.stdout.write(text)
        except OSError as err:
            raise UsageError(f"{_STDOUT_UNWRITABLE}: {err}") from None


HANDLERS = {
    "validate": cmd_validate,
    "lift": lambda a, i: cmd_lift(a, i, inverse=False),
    "invert": lambda a, i: cmd_lift(a, i, inverse=True),
    "defects": cmd_defects,
    "transfer": cmd_transfer,
    "cumulants": cmd_cumulants,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    try:
        if args.weight_cap < 1:
            raise UsageError("--weight-cap must be at least 1")
        if args.weight_cap > WEIGHT_CAP_CEILING:
            raise UsageError(f"--weight-cap above {WEIGHT_CAP_CEILING} is refused: {_LARGE_CAP}")
        if args.weight_cap >= 8:
            print(f"warning: weight cap {args.weight_cap} is large; {_LARGE_CAP}", file=sys.stderr)
        inputs = _parse_inputs(args.command, args.input)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2

    # true by construction: every wedge refuses a product past the weight cap
    base = {"command": args.command, "weight_cap": args.weight_cap, "overflow": False}
    try:
        try:
            payload, ok = HANDLERS[args.command](args, inputs)
        except AlgebraError as err:
            ok, payload = False, {"error": {"message": str(err)}}
            witness = getattr(err, "witness", None)
            if witness:
                payload["error"]["witness"] = witness
        _emit({**base, "ok": ok, **payload}, args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def main() -> None:
    """The `cumalg` command: `run`, then end the process once the report and
    any message are flushed.  Skipping interpreter teardown is safe then: it
    would only free each memo object one by one and unload every module,
    which took about 10 ms per process at cap 3 and 0.25 s at cap 10.  An
    exception that escapes `run` takes the normal exit, with its traceback."""
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as err:
        if code != 2:  # exit 2 after a failed stdout write has said so already
            print(f"usage error: {_STDOUT_UNWRITABLE}: {err}", file=sys.stderr)
            code = 2
    try:
        sys.stderr.flush()
    except OSError:
        code = 120  # what the interpreter exits with when it cannot flush
    os._exit(code)


if __name__ == "__main__":
    main()
