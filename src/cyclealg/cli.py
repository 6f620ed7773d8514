"""Command-line surface: tower specs, invariant reports, comparison, verification.

Tower specs are JSON files (spec schema 1):

    {"schema_version": 1, "m": 3, "mode": "stationary_matroid", "d": 4, "s": 6}

    {"schema_version": 1, "m": 3, "mode": "explicit",
     "shapes": [[1, 1, 1, 1, 1, 1], [2, 2, 2, 2, 2, 2]],
     "embeddings": [[1, 1, 0, 0, 0, 0]]}

Exit codes: 0 success (or "isomorphic" for compare), 2 parse/validation
error or refusal, 3 assertion failure or "not isomorphic".  Reports (report
schema 2) go to stdout (human-readable text by default, ``--json`` for the
structured record), diagnostics to stderr.  ``--json`` prints exactly
``json.dumps(report, sort_keys=True, indent=2)`` and a newline.  A refusal
prints ``error (FIELD): reason``, FIELD being the spec path or the flag at
fault.  Output is byte-identical for identical inputs, flags and seed.

``matrix_model``, and with it numpy, loads only when a ``verify`` target on
the matrix model runs (``lemma22``, ``lemma31``, ``example23``,
``composition-oracle``); every other command runs on exact ints alone.

``main(argv)`` may be called repeatedly in one process.  The argument parser
is built on the first call and reused; it keeps no state between calls, so
each call prints and returns what the same argv would in a fresh process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import types

from . import __version__
from .cycle_core import check_half_length
from .errors import (
    CrossCycleLengthError,
    CycleAlgebraError,
    HomologyRangeError,
    K0NotRigidTypeError,
    SpecValidationError,
)
from .limits import (
    ExplicitTower,
    StationaryMatroidTower,
    decide_isomorphism,
    finite_level_invariants,
    h1_limit,
    is_extreme,
    is_homologically_limited,
    k0_limit,
    progression,
    unital_scale_numerators,
)
from .signatures import (
    CycleAlgebraShape,
    Signature,
    h1,
    homology_range,
    k0_matrix,
    k0h1_roundtrip_report,
    signature_compose,
    signature_from_k0h1,
)


class _LazyModule(types.ModuleType):
    """A module registered before its code runs; its first attribute access runs
    the code.  A run that raises leaves the module lazy, so every later access
    runs the code again and raises as a failed import does."""

    def __getattribute__(self, attr):
        self.__class__ = types.ModuleType
        try:
            self.__spec__.loader.exec_module(self)
        except BaseException:
            self.__class__ = _LazyModule
            raise
        return getattr(self, attr)


def _lazy_module(name):
    """The module ``name``, registered now but executed on its first attribute access.

    It is in ``sys.modules`` from the start, where the benchmark tracer looks
    it up.  An already imported module is returned as it is, so the process
    holds one copy of it; otherwise the parent package gets the attribute an
    import sets.
    """
    if name in sys.modules:
        return sys.modules[name]
    module = importlib.util.module_from_spec(importlib.util.find_spec(name))
    module.__class__ = _LazyModule
    sys.modules[name] = module
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


#: The numpy matrix model, loaded by the first ``verify`` target that uses it.
matrix_model = _lazy_module(f"{__package__}.matrix_model")

#: Version of the report format; homology sets are {lo, hi, step} objects.
SCHEMA_VERSION = 2
#: Version of the tower-spec format, versioned apart from the reports.
SPEC_SCHEMA_VERSION = 1

#: Largest cycle half-length m of a spec or a signature argument: an explicit
#: report holds 2m x 2m matrices and composing builds a (2m)^2 product table.
MAX_HALF_LENGTH = 64
#: Largest joint-scale sample of a stationary report, which lists its numerators.
MAX_SAMPLE_NUMERATORS = 2 ** 16
#: Largest matrix-model dimension N = sum of dims that ``verify`` builds.
MAX_MODEL_DIMENSION = 1024

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_FAILED = 3


# ---------------------------------------------------------------------------
# Tower-spec loading
# ---------------------------------------------------------------------------

def _expect(condition, message, field):
    if not condition:
        raise SpecValidationError(message, field=field)


def _build(field, make, *args):
    """``make(*args)``, with a refusal reported as a spec error at ``field``.

    A refusal that names its argument (the stationary tower's d and s) is
    reported at that spec key instead.
    """
    try:
        return make(*args)
    except CycleAlgebraError as exc:
        raise SpecValidationError(str(exc), field=f"$.{exc.name}" if exc.name else field) from exc


def _half_length(m, field) -> int:
    m = _build(field, check_half_length, m, 3)
    _expect(m <= MAX_HALF_LENGTH,
            f"cycle half-length m={m} exceeds the bound {MAX_HALF_LENGTH}", field)
    return m


def _rows(data, key, make, m) -> list:
    """The list of lists at ``key``, each row built as ``make(m, row)``."""
    rows = data.get(key)
    _expect(isinstance(rows, list), f"{key} must be a list", f"$.{key}")
    out = []
    for i, row in enumerate(rows):
        _expect(isinstance(row, list), f"each entry of {key} must be a list", f"$.{key}[{i}]")
        out.append(_build(f"$.{key}[{i}]", make, m, row))
    return out


def parse_tower_spec(data) -> tuple:
    """Build the tower of a decoded spec; returns ("stationary"|"explicit", tower).

    Only the JSON shape is checked here.  The tower types check every value,
    and each refusal is reported at the spec field it concerns.
    """
    _expect(isinstance(data, dict), "spec must be a JSON object", "$")
    version = data.get("schema_version")
    _expect(type(version) is int and version == SPEC_SCHEMA_VERSION,
            f"schema_version must be {SPEC_SCHEMA_VERSION}", "$.schema_version")
    m = _half_length(data.get("m"), "$.m")
    mode = data.get("mode")
    _expect(mode in ("stationary_matroid", "explicit"),
            "mode must be 'stationary_matroid' or 'explicit'", "$.mode")

    if mode == "stationary_matroid":
        tower = _build("$", StationaryMatroidTower, m, data.get("d"), data.get("s"))
        # The limit invariants factor md and |s|; refuse a factor out of reach here.
        _build("$.d", lambda: tower.md_primes)
        _build("$.s", lambda: tower.s_primes)
        return "stationary", tower

    shapes = _rows(data, "shapes", CycleAlgebraShape, m)
    _expect(shapes, "shapes must be a nonempty list", "$.shapes")
    embeddings = _rows(data, "embeddings", Signature, m)
    return "explicit", _build("$.embeddings", ExplicitTower, shapes, embeddings)


def load_tower_spec(path) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecValidationError(f"cannot read {path}: {exc}", field="$") from exc
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit
        raise SpecValidationError(f"invalid JSON in {path}: {exc}", field="$") from exc
    return parse_tower_spec(data)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _report(command, input_data, result) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "cyclealg", "version": __version__},
        "command": command,
        "input": input_data,
        "result": result,
    }


def _emit(report, as_json) -> None:
    # A level's element_count can have more digits than the int-to-str limit
    # that guards parsing, so the limit is lifted for the output only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if as_json:
            print(_json_text(report))
            return
        print(f"cyclealg {__version__} :: {report['command']}")
        print(f"input: {json.dumps(report['input'], sort_keys=True)}")
        _emit_plain(report["result"], indent="  ")
    finally:
        sys.set_int_max_str_digits(limit)


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _json_text(value, newline="\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, json runs its pure-Python encoder; this writes the
    report's own types directly, through the same string encoder and the
    same ``repr`` of exact ints and floats.  ``newline`` is a newline followed
    by the indentation of the current depth.  Any other value (a tuple, a
    subclass such as a numpy scalar, a dict with a non-str key) is written by
    json and shifted to the current depth: json writes a nested value as it
    writes a top-level one, and its only newlines are the ones between items.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return repr(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) == {int}:  # signatures, matrix rows, shapes
            body = ("," + inner).join(map(repr, value))
        else:
            body = ("," + inner).join([_json_text(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    if kind is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_encode_str(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        ) + newline + "}"
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return repr(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)


def _emit_plain(value, indent="") -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)):
                print(f"{indent}{key}:")
                _emit_plain(item, indent + "  ")
            else:
                print(f"{indent}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                print(f"{indent}-")
                _emit_plain(item, indent + "  ")
            else:
                print(f"{indent}- {item}")
    else:
        print(f"{indent}{value}")


def _parse_signature(text) -> Signature:
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise SpecValidationError(f"malformed signature {text!r}", field="signature") from exc
    if len(entries) % 2 or len(entries) < 6:
        raise SpecValidationError(
            f"a signature needs an even number of entries (>= 6), got {len(entries)}",
            field="signature")
    return _build("signature", Signature, _half_length(len(entries) // 2, "signature"), entries)


def _parse_matrix(text, m):
    rows = text.split(";")
    if len(rows) != 2 * m:
        raise SpecValidationError(f"matrix needs {2 * m} rows, got {len(rows)}", field="k0")
    out = []
    for row in rows:
        try:
            entries = [int(x) for x in row.split(",")]
        except ValueError as exc:
            raise SpecValidationError(f"malformed matrix row {row!r}", field="k0") from exc
        if len(entries) != 2 * m:
            raise SpecValidationError(f"matrix rows need {2 * m} entries", field="k0")
        out.append(entries)
    return out


def _parse_dims(text, m) -> tuple:
    parts = text.split(",")
    try:
        values = [int(x) for x in parts]
    except ValueError as exc:
        raise SpecValidationError(f"malformed dims {text!r}", field="dims") from exc
    dimension = values[0] * 2 * m if len(values) == 1 else sum(values)
    if dimension > MAX_MODEL_DIMENSION:
        raise SpecValidationError(
            f"model dimension {dimension} (the sum of dims) exceeds the bound "
            f"{MAX_MODEL_DIMENSION}", field="dims")
    if len(values) == 1:
        values = values * (2 * m)
    if len(values) != 2 * m:
        raise SpecValidationError(f"dims needs 1 or {2 * m} entries", field="dims")
    return tuple(values)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_invariants(args) -> int:
    mode, tower = load_tower_spec(args.spec)
    if mode == "stationary":
        samples = unital_scale_numerators(tower)
        if len(samples) > MAX_SAMPLE_NUMERATORS:
            raise SpecValidationError(
                f"the joint-scale sample has {len(samples)} numerators, more than the "
                "bound 2^16", field="$.d")
        sn, k0_desc = k0_limit(tower)
        group = h1_limit(tower)
        result = {
            "mode": "stationary_matroid",
            "tower": {"m": tower.m, "d": tower.d, "s": tower.s},
            "k0": {"supernatural": sn.to_json(), "display": str(sn), **k0_desc},
            "h1": {"kind": group.kind, "primes": list(group.primes),
                   "display": group.describe()},
            "extreme": is_extreme(tower),
            "homologically_limited": is_homologically_limited(tower),
            "joint_scale_sample": {
                "description": "numerators k with 1/m (+) 1/m (+) k/(md) in the unital joint scale",
                "t": 1,
                "contained": list(samples),
            },
        }
        input_data = {"spec": args.spec, "mode": mode,
                      "tower": {"m": tower.m, "d": tower.d, "s": tower.s}}
    else:
        result = {"mode": "explicit", "levels": finite_level_invariants(tower),
                  "note": "finite prefix: no limit verdict is attached"}
        input_data = {"spec": args.spec, "mode": mode,
                      "shapes": [list(s.vertex_mults) for s in tower.shapes],
                      "embeddings": [list(e.r) for e in tower.embeddings]}
    _emit(_report("invariants", input_data, result), args.json)
    return EXIT_OK


def cmd_compare(args) -> int:
    mode_a, tower_a = load_tower_spec(args.spec_a)
    mode_b, tower_b = load_tower_spec(args.spec_b)
    if mode_a != "stationary" or mode_b != "stationary":
        raise SpecValidationError("limit verdicts require stationary mode", field="$.mode")
    verdict = decide_isomorphism(tower_a, tower_b)
    result = {
        "verdict": verdict.verdict,
        "witness": verdict.witness,
        "detail": verdict.detail,
        "towers": [{"m": t.m, "d": t.d, "s": t.s} for t in (tower_a, tower_b)],
    }
    input_data = {"spec_a": args.spec_a, "spec_b": args.spec_b}
    _emit(_report("compare", input_data, result), args.json)
    return EXIT_OK if verdict.isomorphic else EXIT_FAILED


#: The number of signature arguments each ``signature`` operation takes.
SIGNATURE_ARITY = {"compose": 2, "homrange": 1, "fromk0h1": 0}


def cmd_signature(args) -> int:
    arity = SIGNATURE_ARITY[args.operation]
    if len(args.args) != arity:
        raise SpecValidationError(
            f"{args.operation} takes {arity} signature argument{'' if arity == 1 else 's'}, "
            f"got {len(args.args)}", field="signature")
    if args.operation == "compose":
        inner = _parse_signature(args.args[0])
        outer = _parse_signature(args.args[1])
        composed = _build("signature", signature_compose, inner, outer)
        result = {"inner": list(inner.r), "outer": list(outer.r),
                  "composed": list(composed.r), "h1": h1(composed)}
        exit_code = EXIT_OK
    elif args.operation == "homrange":
        sig = _parse_signature(args.args[0])
        result = {"signature": list(sig.r), "h1": h1(sig),
                  "homology_range": progression(homology_range(sig))}
        exit_code = EXIT_OK
    else:  # fromk0h1
        if args.m is None or args.k0 is None or args.h is None:
            raise SpecValidationError("fromk0h1 needs --m, --k0 and --h", field="fromk0h1")
        matrix = _parse_matrix(args.k0, _half_length(args.m, "m"))
        try:
            sig = signature_from_k0h1(matrix, args.h)
        except (K0NotRigidTypeError, HomologyRangeError) as exc:
            result = {"realizable": False, "reason": str(exc),
                      "kind": type(exc).__name__}
            exit_code = EXIT_FAILED
        except CycleAlgebraError as exc:  # a malformed matrix is refused, not answered
            raise SpecValidationError(str(exc), field="k0") from exc
        else:
            result = {"realizable": True, "signature": list(sig.r),
                      "k0_matrix": k0_matrix(sig), "h1": h1(sig)}
            exit_code = EXIT_OK
    input_data = {"operation": args.operation, "args": list(args.args),
                  "m": args.m, "k0": args.k0, "h": args.h}
    _emit(_report(f"signature {args.operation}", input_data, result), args.json)
    return exit_code


def _verify_result(args) -> dict:
    model = None
    if args.target in ("lemma22", "lemma31"):
        # m first: a bad m would otherwise be reported as a bad dims count
        m = check_half_length(args.m, name="m")
        model = _build("dims", matrix_model.MatrixAlgebraModel, m, _parse_dims(args.dims, m))
    if args.target == "lemma22":
        return matrix_model.entrywise_partial_isometry_report(model, trials=args.trials,
                                                              tol=args.tol, seed=args.seed)
    if args.target == "lemma31":
        return matrix_model.perturbed_entry_report(model, delta=args.delta, trials=args.trials,
                                                   epsilon=args.epsilon, seed=args.seed)
    if args.target == "example23":
        return matrix_model.nonregular_embedding_example()[1]
    if args.target == "composition-oracle":
        return matrix_model.composition_oracle_report(args.m)
    return k0h1_roundtrip_report(args.m, max_entry=args.max_entry)


def cmd_verify(args) -> int:
    try:
        result = _verify_result(args)
    except CycleAlgebraError as exc:
        # each harness names the argument it refuses; the flags share those names
        if exc.name is None:
            raise
        raise SpecValidationError(str(exc), field=exc.name) from exc
    input_data = {"target": args.target, "m": args.m, "dims": args.dims,
                  "trials": args.trials, "tol": args.tol, "delta": args.delta,
                  "epsilon": args.epsilon, "seed": args.seed,
                  "max_entry": args.max_entry}
    _emit(_report(f"verify {args.target}", input_data, result), args.json)
    return EXIT_OK if result.get("ok", False) else EXIT_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclealg",
        description="Invariants and isomorphism decisions for towers of 2m-cycle algebras")
    parser.add_argument("--version", action="version", version=f"cyclealg {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_inv = sub.add_parser("invariants", help="invariant report for a tower spec")
    p_inv.add_argument("spec")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(func=cmd_invariants)

    p_cmp = sub.add_parser("compare", help="isomorphism verdict for two stationary specs")
    p_cmp.add_argument("spec_a")
    p_cmp.add_argument("spec_b")
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_sig = sub.add_parser("signature", help="exact signature arithmetic")
    p_sig.add_argument("operation", choices=["compose", "homrange", "fromk0h1"])
    p_sig.add_argument("args", nargs="*",
                       help="signatures as comma lists in canonical label order")
    p_sig.add_argument("--m", type=int, default=None)
    p_sig.add_argument("--k0", default=None, help="matrix rows 'a,b,..;..' (odd-then-even order)")
    p_sig.add_argument("--h", type=int, default=None)
    p_sig.add_argument("--json", action="store_true")
    p_sig.set_defaults(func=cmd_signature)

    p_ver = sub.add_parser("verify", help="run a numerical verification harness")
    p_ver.add_argument("target", choices=["lemma22", "lemma31", "example23",
                                          "composition-oracle", "lemma42-roundtrip"])
    p_ver.add_argument("--m", type=int, default=3)
    p_ver.add_argument("--dims", default="2", help="vertex multiplicities (single value or list)")
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.add_argument("--delta", type=float, default=1e-6)
    p_ver.add_argument("--epsilon", type=float, default=1e-4)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-entry", type=int, default=2)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _attach_k0(argv) -> list:
    """``signature`` argv with ``--k0 VALUE`` written ``--k0=VALUE`` where VALUE
    starts with a minus sign and a digit: argparse takes such a matrix for an
    option and would refuse it before the matrix check sees it.  ``--k``, the
    abbreviation argparse accepts, is joined too; arguments after ``--`` are
    positional and kept as they are."""
    out = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + argv[i:]
        if out and out[-1] in ("--k", "--k0") and arg[:1] == "-" and arg[1:2].isdecimal():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


#: The parser, built by the first ``main`` call (not at import) and reused after.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["signature"]:
        argv = _attach_k0(argv)
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``| head``): drop the rest of the report
        # quietly, and keep the interpreter's final flush from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SpecValidationError as exc:
        print(f"error ({exc.field}): {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CrossCycleLengthError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CycleAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
