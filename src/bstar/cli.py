"""Command line interface: check | vectors | homology | construct | verify.

Inputs are file paths (canonical JSON facet format or plain text, one
facet per line) or named complexes via "named:<name>".  `check`,
`vectors` and `homology` are one command, `cmd_per_field`, that prints
one report per field; `_PER_FIELD` names the report each one builds.
All output is key-sorted JSON by default; verdicts are data, so `check`
exits 0 even for complexes failing every property.  Exit code 2 signals
unusable input or an exceeded guard, exit 1 a failed verification run,
and exit 3 a failed internal consistency check (a bug in the library).

A command imports only the modules it runs: this module loads
`complexes`, `homology`, `linalg` and `properties`; `constructions` is
imported for a "named:" input and by `construct`, `vectors` by `vectors`,
and `theorems` (with `vectors` and `rigidity`) by `verify`.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import complexes, properties
from .complexes import Complex, FaceCountError, cone, join, parse, skeleton, to_json
from .homology import betti
from .linalg import DEFAULT_FIELDS, FieldSpec, LinalgGuardError
from .properties import ConsistencyError, SubsetGuardError, property_report

_MAX_SAFE_INT = 2**53


def _jsonable(value):
    """JSON form with large integers as decimal strings (exactness first)."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value if abs(value) < _MAX_SAFE_INT else str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _emit(data, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(data), sort_keys=True, indent=2))
    else:
        _emit_text(data)


def _emit_text(data, indent=0) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{data}")


def _read_complex_file(path: str) -> Complex:
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    if path.endswith(".json") and not text.lstrip().startswith("{"):
        raise ValueError('expected an object with a "facets" key')
    return parse(text)


def _load_complex(source: str) -> Complex:
    if source.startswith("named:"):
        from .constructions import named

        return named(source[len("named:"):])
    return _read_complex_file(source)


def _fields(args) -> tuple[FieldSpec, ...]:
    return tuple(map(FieldSpec.parse, args.field)) or DEFAULT_FIELDS


def _guard_flag(text: str) -> int:
    try:
        return complexes._positive_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _apply_guards(args) -> None:
    if getattr(args, "max_faces", None) is not None:
        complexes.set_max_faces(args.max_faces)
    else:
        complexes.get_max_faces()  # a malformed BSTAR_MAX_FACES is bad input
    if getattr(args, "max_subsets", None) is not None:
        properties.set_max_subsets(args.max_subsets)


def _complex_summary(c: Complex) -> dict:
    return {
        "n_vertices": c.n_vertices,
        "dim": c.dim,
        "n_facets": len(c.facets),
        "f_vector": list(c.f_vector()),
    }


def _vectors_report(c: Complex, f: FieldSpec) -> dict:
    from .vectors import face_vectors

    return face_vectors(c, f).to_jsonable()


# The per-field commands: name, help, output key, and one field's report.
# Each report looks up property_report, face_vectors or betti when it is
# called.  bench/spans.py's tracer imports every module and then patches
# module attributes, this module's globals among them, so a name looked
# up or imported at call time goes through the tracer's wrapper.
_PER_FIELD = (
    ("check", "decide the property hierarchy", "reports",
     lambda c, f: property_report(c, f).to_jsonable()),
    ("vectors", "f/h/h'/h''/g vectors", "vectors", _vectors_report),
    ("homology", "reduced Betti numbers", "homology",
     lambda c, f: {"field": str(f), "betti": list(betti(c, f).betti)}),
)


def cmd_per_field(args) -> int:
    c = _load_complex(args.input)
    reports = [args.report(c, f) for f in _fields(args)]
    _emit({"complex": _complex_summary(c), args.key: reports}, args.format)
    return 0


def cmd_construct(args) -> int:
    from .constructions import export_corpus, named, product, stacked_sphere

    kind = args.recipe[0]
    rest = args.recipe[1:]
    if kind == "corpus":
        if len(rest) != 1:
            raise ValueError("usage: construct corpus OUTDIR")
        written = export_corpus(rest[0])
        _emit({"written": written}, args.format)
        return 0
    if len(rest) < 1:
        raise ValueError("construct needs an output path")
    *params, out = rest
    if kind == "join" and len(params) == 2:
        c = join(_load_complex(params[0]), _load_complex(params[1]))
    elif kind == "product" and len(params) == 2:
        c = product(_load_complex(params[0]), _load_complex(params[1]))
    elif kind == "skeleton" and len(params) == 2:
        c = skeleton(_load_complex(params[0]), int(params[1]))
    elif kind == "cone" and len(params) == 1:
        c = cone(_load_complex(params[0]))
    elif kind == "stacked" and len(params) == 2:
        c = stacked_sphere(int(params[0]), int(params[1]))
    elif kind.startswith("named:") and not params:
        c = named(kind[len("named:"):])
    else:
        raise ValueError(f"unrecognised construct recipe: {' '.join(args.recipe)}")
    # the summary enumerates the faces under the face guard: no file is
    # written for a complex that fails it
    summary = _complex_summary(c)
    text = to_json(c) + "\n"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    _emit({"written": out, "complex": summary}, args.format)
    return 0


def cmd_verify(args) -> int:
    from .constructions import corpus
    from .theorems import run_battery

    fields = _fields(args)
    broken = []
    if args.builtin or not args.corpus:
        results = run_battery(fields=fields, seed=args.seed)
        entry_names = [n for n, _ in corpus()]
    else:
        import os

        files = [fn for fn in sorted(os.listdir(args.corpus))
                 if os.path.isfile(os.path.join(args.corpus, fn))]
        if not files:
            raise ValueError(f"no complex files in {args.corpus}")
        entries = []
        for fn in files:
            try:
                entries.append((fn, _read_complex_file(os.path.join(args.corpus, fn))))
            except Exception as exc:  # corrupted entries are reported, not fatal
                broken.append(f"{fn}: {exc}")
        results = run_battery(entries, fields=fields, seed=args.seed)
        entry_names = [n for n, _ in entries]
    matrix = {res.name: {"passed": res.passed, "details": res.details}
              for res in results}
    ok = all(res.passed for res in results) and not broken
    _emit({"corpus": entry_names, "fields": [str(f) for f in fields],
           "results": matrix, "unreadable": broken, "all_passed": ok},
          args.format)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bstar",
        description="Simplicial complex property checks, face vectors, and "
                    "a verification battery over exact arithmetic.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="file path or named:<name>")
        p.add_argument("--field", action="append", default=[],
                       help="coefficient field: q or gf:<p> (repeatable; "
                            "default: q and gf:2)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--max-faces", type=_guard_flag, default=None,
                       help="face enumeration guard")
        p.add_argument("--max-subsets", type=_guard_flag, default=None,
                       help="vertex subset sweep guard")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized rigidity tests")

    for name, help_text, key, report in _PER_FIELD:
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(fn=cmd_per_field, key=key, report=report)

    p_con = sub.add_parser(
        "construct",
        help="build a complex: join A B OUT | product A B OUT | "
             "skeleton A I OUT | cone A OUT | stacked N D OUT | "
             "named:X OUT | corpus OUTDIR")
    p_con.add_argument("recipe", nargs="+")
    p_con.add_argument("--format", choices=("json", "text"), default="json")
    p_con.add_argument("--max-faces", type=_guard_flag, default=None)
    p_con.set_defaults(fn=cmd_construct)

    p_ver = sub.add_parser("verify", help="run the verification battery")
    p_ver.add_argument("corpus", nargs="?", default=None,
                       help="directory of complex files (default: built-in)")
    p_ver.add_argument("--builtin", action="store_true",
                       help="force the built-in corpus")
    common(p_ver, with_input=False)
    p_ver.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    guards = complexes._max_faces, properties._max_subsets
    try:
        _apply_guards(args)
        return args.fn(args)
    except (OSError, ValueError, json.JSONDecodeError, FaceCountError,
            LinalgGuardError, SubsetGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        complexes._max_faces, properties._max_subsets = guards


if __name__ == "__main__":
    sys.exit(main())
