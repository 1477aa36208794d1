"""Command-line surface.

Four subcommands: ``decompose`` and ``converge-report`` run the decomposition
engines on operator files, ``check-unique`` answers the uniqueness question
for a pair of functionals or representatives, and ``counterexample`` builds
the non-unique sequence pair over a given base sequence.

Exit codes separate mathematics from operations: 0 carries answers (including
"not unique" -- uniqueness status is data, not an error), 2 flags invalid
input with a single ``error:`` diagnostic on stderr naming the violated
invariant, and 3 flags a numerical failure (an internal consistency
breakdown).  Outputs are written atomically and rerunning with
identical inputs and flags reproduces byte-identical payloads; wall-clock
timing lives in a ``timing`` block excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

from .diagonal import (
    _diag_split,
    _verified_companion,
    certificate_to_json,
    sequence_from_json,
    sequence_to_json,
    truncate_to_matrix,
)
from .errors import ConsistencyError, ValidationError
from .functionals import NormalFunctional, functional_from_json, functional_uniqueness
from .lebesgue import ac_part_iterative, decompose
from .psd_core import CONV_TOL, PSD_TOL, RANK_CUTOFF, matrix_to_json, psd_from_json

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

DEFAULT_TRUNCATE = 32


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str):
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(payload, parse_int=_json_int), hashlib.sha256(payload).hexdigest()
    except ValueError as exc:  # malformed, or an integer no float can hold
        raise ValidationError(f"cannot read {path} as JSON: {exc}") from exc


def _json_int(digits: str) -> int:
    if math.isinf(float(digits)):
        raise ValueError(f"an integer of {len(digits)} digits does not fit a float")
    return int(digits)


def _sniff_kind(obj) -> str:
    if isinstance(obj, dict):
        if "kind" in obj:
            return "functional"
        if "real" in obj or "dim" in obj:
            return "matrix"
        if "prefix" in obj:
            return "sequence"
    raise ValidationError("input JSON is neither a matrix, a sequence, nor a functional")


def _load_pair(path_s: str, path_t: str):
    """Both operand files of a pair command: (kind, (obj_s, digest_s), (obj_t, digest_t))."""
    loaded_s, loaded_t = _load_json(path_s), _load_json(path_t)
    kind_s, kind_t = _sniff_kind(loaded_s[0]), _sniff_kind(loaded_t[0])
    if kind_s != kind_t:
        raise ValidationError(f"input kinds do not match: {kind_s} vs {kind_t}")
    return kind_s, loaded_s, loaded_t


def _echo(obj, kind: str, digest: str) -> dict:
    if kind == "matrix":
        return {"sha256": digest, "kind": kind, "dim": obj.dim}
    return {
        "sha256": digest,
        "kind": kind,
        "prefix_len": obj.prefix_len,
        "infinite_support": obj.has_infinite_support,
    }


def _json_number(value):
    if value is None or not math.isfinite(value):
        return None
    return value


def _write_atomic(path: str, data: str, quiet: bool):
    """Write through a temporary file renamed over ``path``; on any failure the
    temporary file is removed and ``path`` is left as it was."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    if not quiet:
        print(f"wrote {path}")


def _write_output(path: str, data: str, quiet: bool):
    try:
        _write_atomic(path, data, quiet)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _pretty(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    ``indent`` makes the stdlib drop its C encoder, so lists and dicts are
    walked here as its pure-Python encoder walks them, and each flat list of
    numbers goes to the C encoder with the indented line break as its item
    separator; every scalar goes to ``json.dumps``.  The text is gathered in
    chunks and joined once.
    """
    chunks = []
    _layout(obj, "\n", chunks)
    return "".join(chunks)


def _layout(obj, newline: str, chunks: list):
    """Append the text of ``obj`` to ``chunks``; ``newline`` is the line break,
    with its indent, of the nesting level ``obj`` sits at."""
    inner = newline + "  "
    if isinstance(obj, (list, tuple)) and obj:
        chunks.append("[" + inner)
        if set(map(type, obj)) <= {float, int}:
            chunks.append(json.dumps(obj, separators=("," + inner, ": "))[1:-1])
        else:
            for i, item in enumerate(obj):
                if i:
                    chunks.append("," + inner)
                _layout(item, inner, chunks)
        chunks.append(newline + "]")
    elif isinstance(obj, dict) and obj:
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            chunks.append(separator + _json_key(key) + ": ")
            _layout(value, inner, chunks)
            separator = "," + inner
        chunks.append(newline + "}")
    else:
        chunks.append(json.dumps(obj))


def _json_key(key) -> str:
    """An object key as ``json`` writes it: numbers, bools and null quoted."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_report(path: str, report: dict, quiet: bool):
    _write_output(path, _pretty(report) + "\n", quiet)


def cmd_decompose(args) -> int:
    kind, (obj_s, digest_s), (obj_t, digest_t) = _load_pair(args.s_path, args.t_path)
    started = time.perf_counter()
    if kind == "matrix":
        s, t = psd_from_json(obj_s), psd_from_json(obj_t)
        dec = decompose(s, t)
        steps = dec.trace_of_iteration.steps
        body = {
            "ac": matrix_to_json(dec.ac),
            "sing": matrix_to_json(dec.sing),
            "unique": dec.uniqueness.unique,
            "c": _json_number(dec.uniqueness.c),
            "iterations": [{"k": step.k, "gap": step.gap} for step in steps],
        }
    elif kind == "sequence":
        s, t = sequence_from_json(obj_s), sequence_from_json(obj_t)
        split = _diag_split(s, t)
        body = {
            "ac": sequence_to_json(split.ac),
            "sing": sequence_to_json(split.sing),
            "unique": split.certificate.bounded,
            "c": _json_number(split.certificate.constant()),
            "iterations": [],
        }
    else:
        raise ValidationError("decompose expects matrix or sequence inputs, not functionals")
    report = {
        "inputs": {"s": _echo(s, kind, digest_s), "t": _echo(t, kind, digest_t)},
        "tolerances": {"conv_tol": CONV_TOL, "psd_tol": PSD_TOL, "rank_cutoff": RANK_CUTOFF},
        "decomposition": body,
        "timing": {"elapsed_seconds": time.perf_counter() - started},
    }
    _write_report(args.out_path, report, args.quiet)
    return EXIT_OK


def _as_functional(obj) -> NormalFunctional:
    kind = _sniff_kind(obj)
    if kind == "functional":
        return functional_from_json(obj)
    if kind == "matrix":
        return NormalFunctional(psd_from_json(obj))
    return NormalFunctional(sequence_from_json(obj))


def cmd_check_unique(args) -> int:
    obj_g, _ = _load_json(args.g_path)
    obj_f, _ = _load_json(args.f_path)
    g = _as_functional(obj_g)
    f = _as_functional(obj_f)
    cert = functional_uniqueness(g, f)
    print(json.dumps({"unique": cert.unique, "c": _json_number(cert.c)}, sort_keys=True))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    obj, digest = _load_json(args.lambda_path)
    if _sniff_kind(obj) != "sequence":
        raise ValidationError("counterexample input must be a sequence JSON")
    lam = sequence_from_json(obj)
    mu, certificate = _verified_companion(lam, args.truncate_horizon)
    report = {
        "inputs": {"lambda": _echo(lam, "sequence", digest)},
        "t": sequence_to_json(lam),
        "s": sequence_to_json(mu),
        "certificate": certificate_to_json(certificate),
        "unique": False,
    }
    _write_report(args.out_path, report, args.quiet)
    return EXIT_OK


def cmd_converge_report(args) -> int:
    kind, (obj_s, _), (obj_t, _) = _load_pair(args.s_path, args.t_path)
    if kind == "matrix":
        s, t = psd_from_json(obj_s), psd_from_json(obj_t)
    elif kind == "sequence":
        s = truncate_to_matrix(sequence_from_json(obj_s), args.truncate)
        t = truncate_to_matrix(sequence_from_json(obj_t), args.truncate)
    else:
        raise ValidationError("converge-report expects matrix or sequence inputs")
    _, trace = ac_part_iterative(s, t)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["k", "n", "gap_trace", "c_bound"])
    for step in trace.steps:
        writer.writerow([step.k, 2**step.k, repr(step.gap), repr(step.c_bound)])
    _write_output(args.csv_path, buffer.getvalue(), args.quiet)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplebesgue",
        description="Lebesgue decompositions of PSD operators: certificates, "
        "uniqueness checks and counterexample construction.",
    )
    parser.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATE,
                        help="sequence-to-matrix truncation horizon")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("decompose", help="decompose S relative to T and write a report")
    p.add_argument("s_path")
    p.add_argument("t_path")
    p.add_argument("out_path")
    p.set_defaults(handler=cmd_decompose)

    p = commands.add_parser("check-unique", help="print the uniqueness verdict for (g, f)")
    p.add_argument("g_path")
    p.add_argument("f_path")
    p.set_defaults(handler=cmd_check_unique)

    p = commands.add_parser("counterexample",
                            help="build the non-unique pair over an infinite-support sequence")
    p.add_argument("lambda_path")
    p.add_argument("out_path")
    p.add_argument("--horizon", dest="truncate_horizon", type=int, default=10_000,
                   help="materialization horizon for the constructed sequence")
    p.set_defaults(handler=cmd_counterexample)

    p = commands.add_parser("converge-report",
                            help="CSV trace of the monotone approximants for (S, T)")
    p.add_argument("s_path")
    p.add_argument("t_path")
    p.add_argument("csv_path")
    p.set_defaults(handler=cmd_converge_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        return _fail(str(exc), EXIT_INVALID)
    except ConsistencyError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
