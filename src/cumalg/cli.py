"""Batch front door: load JSON documents, run one job, write one report.

Reports are deterministic: canonical key order, tables in canonical monomial
order, no timestamps.  Exit codes: 0 success, 1 validation failure, 2 usage
error.

Each handler imports the layers its command runs, so a process loads (and
compiles) only those; this module imports only what every command shares.
It reads every input document, and keeps the last `KEPT_DOCUMENTS` parsed
algebra, map, retract and transfer documents from one job to the next (see
`_parsed`); the table commands' jobs and their row writer are in
`cumalg.tables`.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

from .algebra import (
    DEFAULT_WEIGHT_CAP, WEIGHT_CAP_CEILING, AlgebraError, field, format_scalar,
    parse_algebra, parse_linear_map, reader,
)

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


def _write(text: str, path=None) -> None:
    """Write a report or a help text to the file at `path`, or, with no
    path, to standard output: the one way out of a job, where a write that
    fails is a usage error."""
    try:
        if not path:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as err:
        where = f"cannot write {path}" if path else _STDOUT_UNWRITABLE
        raise UsageError(f"{where}: {err}") from None


def _say(message: str) -> None:
    """Write one line to standard error, best effort: what run writes there
    is the large-cap warning or a usage error, whose exit code 2 says so
    already, so a message that cannot be written changes neither the
    report nor the exit code."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass


HELP = f"""\
usage: cumalg COMMAND [--weight-cap N] [--input ROLE=PATH]... [--output PATH]
              [--format json|text] [--kind hom|der]

Exact cumulant bijections on graded commutative algebras.

commands:
  validate            check algebra and retract laws
  lift                tabulate the cumulant bijection
  invert              tabulate its inverse
  defects             defect coefficient tables (needs --kind)
  transfer            run the retract pipeline
  cumulants           moments to cumulants

options, each given as --option VALUE or --option=VALUE:
  --weight-cap N      truncation weight (default {DEFAULT_WEIGHT_CAP}, ceiling {WEIGHT_CAP_CEILING})
  --input ROLE=PATH   role-tagged input document, once per role;
                      roles: {", ".join(ROLES)}
  --output PATH       report destination (default stdout)
  --format json|text  report format (default json)
  --kind hom|der      defect kind, for defects only
  -h, --help          show this help and exit
"""
# the options every command takes (`defects` also takes `--kind`), and the
# values an option takes where not any
_OPTIONS = ("--weight-cap", "--input", "--output", "--format")
_CHOICES = {"--format": ("json", "text"), "--kind": ("hom", "der")}


def parse_args(argv):
    """The command line `argv` read by the grammar of `HELP`, as the
    attributes `command`, `weight_cap`, `input` (the `--input` values in
    order), `output`, `format` and `kind`; None for `-h` or `--help`.  Option
    names are exact; a repeated option keeps its last value; a value given
    apart that starts with `--` is a missing one (`--option=--x` passes it)."""
    if not argv:
        raise UsageError("no command; commands: " + ", ".join(READS))
    command = argv[0]
    if command in ("-h", "--help"):
        return None
    if command not in READS:
        raise UsageError(f"unknown command {command!r}; commands: " + ", ".join(READS))
    options = _OPTIONS + ("--kind",) if command == "defects" else _OPTIONS
    args = SimpleNamespace(command=command, weight_cap=DEFAULT_WEIGHT_CAP, input=[],
                           output=None, format="json", kind=None)
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        name, given, value = token.partition("=")
        if name not in options:
            raise UsageError(f"{token!r} is not an option of {command}")
        if not given:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{name} needs a value")
        if name == "--input":
            args.input.append(value)
        elif name == "--weight-cap":
            try:
                args.weight_cap = int(value)
            except ValueError:
                raise UsageError(f"--weight-cap takes an integer, not {value!r}") from None
        elif name in _CHOICES and value not in _CHOICES[name]:
            raise UsageError(f"{name} takes " + " or ".join(_CHOICES[name]) + f", not {value!r}")
        else:
            setattr(args, name[2:], value)
    if command == "defects" and args.kind is None:
        raise UsageError("defects needs --kind " + " or ".join(_CHOICES["--kind"]))
    return args


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


# parsed documents kept from one job to the next, the least recently read
# going first.  A session of the benchmark reads 13 distinct ones (5 algebras,
# 5 maps, a retract and two transfer documents); 32 keeps that working set
# with room to spare, and bounds what a long-lived process holds, since a kept
# presentation keeps the cumulant contexts (tau-tilde memos) jobs filled in it.
KEPT_DOCUMENTS = 32


@functools.lru_cache(maxsize=KEPT_DOCUMENTS)
def _parsed(role: str, data: bytes):
    """The parsed document of `role` whose JSON text is `data`.  A later job
    that reads the same bytes gets the same objects, with the tau-tilde memos
    earlier jobs filled; a document that fails to parse is not kept, so it
    fails the same way every time."""
    if role == "algebra":
        return parse_algebra(data)
    if role == "map":
        return _read_map(data)
    from . import transfer

    if role == "retract":
        return transfer.parse_retract(data)
    return transfer.parse_transfer_input(data)


def _read(inputs: dict, role: str):
    """The document given for `role`, read from its file on every job and
    parsed unless its bytes are among those kept."""
    return _parsed(role, _load_json(inputs[role]))


def cmd_validate(args, inputs):
    results = {}
    ok = True
    if "algebra" in inputs:
        algebra = _read(inputs, "algebra")
        results["algebra"] = {"ok": True, "generators": len(algebra)}
    if "retract" in inputs:
        from .transfer import validate_retract

        report = validate_retract(_read(inputs, "retract"))
        results["retract"] = report.to_doc()
        ok = ok and report.ok
    return {"results": results}, ok


def cmd_lift(args, inputs):
    """`lift`, or `invert` when that is the command."""
    from .tables import lift

    return lift(_read(inputs, "algebra"), args.weight_cap, args.command == "invert")


def cmd_defects(args, inputs):
    from .tables import defects

    return defects(_read(inputs, "map"), args.kind, args.weight_cap)


def cmd_transfer(args, inputs):
    from .transfer import TransferError, induced_cumulant_bijection

    try:
        result = induced_cumulant_bijection(_read(inputs, "transfer"), args.weight_cap)
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
    """The text report's lines for a JSON value, as `json.loads` gives it."""
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
            if isinstance(item, (dict, list)):
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append("  " * (indent + 1) + "- " + _json_text(item))
        return lines
    return [f"{pad}{label}{_json_text(value)}"]


_quote = json.encoder.encode_basestring_ascii


def _json_text(value, pad="\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for str-keyed dicts,
    lists, strings, ints, booleans and None, byte for byte, and for a node
    that writes itself its `json_text(pad)`.  CPython's C encoder does not take
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
    json_text = getattr(value, "json_text", None)
    if json_text is None:
        raise TypeError(f"report value of type {kind.__name__} is not JSON")
    return json_text(pad)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = _json_text(report) + "\n"
    else:
        text = "\n".join(_render_text(json.loads(_json_text(report)))) + "\n"
    _write(text, args.output)


HANDLERS = {
    "validate": cmd_validate,
    "lift": cmd_lift,
    "invert": cmd_lift,
    "defects": cmd_defects,
    "transfer": cmd_transfer,
    "cumulants": cmd_cumulants,
}


def run(argv) -> int:
    try:
        args = parse_args(argv)
        if args is None:
            _write(HELP)
            return 0
        if args.weight_cap < 1:
            raise UsageError("--weight-cap must be at least 1")
        if args.weight_cap > WEIGHT_CAP_CEILING:
            raise UsageError(f"--weight-cap above {WEIGHT_CAP_CEILING} is refused: {_LARGE_CAP}")
        if args.weight_cap >= 8:
            _say(f"warning: weight cap {args.weight_cap} is large; {_LARGE_CAP}")
        inputs = _parse_inputs(args.command, args.input)
        # true by construction: every wedge refuses a product past the weight cap
        base = {"command": args.command, "weight_cap": args.weight_cap, "overflow": False}
        try:
            payload, ok = HANDLERS[args.command](args, inputs)
        except AlgebraError as err:
            ok, payload = False, {"error": {"message": str(err)}}
            witness = getattr(err, "witness", None)
            if witness:
                payload["error"]["witness"] = witness
        _emit({**base, "ok": ok, **payload}, args)
    except UsageError as err:
        _say(f"usage error: {err}")
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
            _say(f"usage error: {_STDOUT_UNWRITABLE}: {err}")
            code = 2
    try:
        sys.stderr.flush()
    except OSError:
        pass  # every message is best effort (`_say`)
    os._exit(code)


if __name__ == "__main__":
    main()
