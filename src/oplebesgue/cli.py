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
import json
import math
import os
import sys
import time

import numpy as np

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
from .psd_core import CONV_TOL, PSD_TOL, RANK_CUTOFF, _matrix_grids, psd_from_json

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

DEFAULT_TRUNCATE = 32
# the supported maximum of --truncate, which sizes two dense n x n operands
# and the iteration's n x n checks; a truncation is built without an eigh
MAX_TRUNCATE = 2048

# entries of a flat number list per C-encoder call, so the text built at once
# for a long sequence prefix stays small next to the operands
_SLICE = 4096

# the text of a finite float, the call json's C encoder makes for one; the
# grid path of _layout formats every magnitude through this name
_float_text = float.__repr__


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str, hashed: bool = False):
    """``(obj, digest)``: the decoded file, and the sha256 of its bytes when
    ``hashed`` (the reports that echo their inputs), else None."""
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    digest = hashlib.sha256(payload).hexdigest() if hashed else None
    try:
        # decoded as json.loads decodes bytes, which are dropped before the object is built
        text = payload.decode(json.detect_encoding(payload), "surrogatepass")
        del payload
        return json.loads(text, parse_int=_json_int), digest
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


def _load_pair(path_s: str, path_t: str, hashed: bool = False):
    """Both operand files of a pair command: (kind, (obj_s, digest_s), (obj_t, digest_t))."""
    loaded_s, loaded_t = _load_json(path_s, hashed), _load_json(path_t, hashed)
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


def _write_atomic(path: str, fill, quiet: bool):
    """Write through a temporary file renamed over ``path``: ``fill(handle)``
    writes the body to the open temporary file, in as many ``write`` calls as
    it needs.  On any failure, one raised by ``fill`` after it has written
    part of the body included, the temporary file is removed and ``path`` is
    left as it was."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            fill(handle)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    if not quiet:
        print(f"wrote {path}")


def _write_output(path: str, fill, quiet: bool):
    try:
        _write_atomic(path, fill, quiet)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _pretty(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte: the
    chunks of ``_layout`` joined."""
    chunks = []
    _layout(obj, "\n", chunks.append)
    return "".join(chunks)


def _layout(obj, newline: str, emit):
    """Pass the text of ``obj`` to ``emit`` chunk by chunk, laid out as
    ``json.dumps(obj, sort_keys=True, indent=2)`` lays it out; ``newline`` is
    the line break, with its indent, of the nesting level ``obj`` sits at.

    ``indent`` makes the stdlib drop its C encoder, so lists and dicts are
    walked here as its pure-Python encoder walks them, and each flat list of
    numbers goes to the C encoder, ``_SLICE`` entries at a time, with the
    indented line break as its item separator; every scalar goes to
    ``json.dumps``.  A numpy array is laid out as its ``tolist()``, a 2-D one
    row by row, so no nested list of the whole array is built.  A square,
    finite float64 grid takes ``_layout_grid``, which formats each mirrored
    magnitude once; any other array goes to the C encoder row by row.
    """
    if isinstance(obj, np.ndarray):
        if (obj.ndim == 2 and obj.shape[0] == obj.shape[1] > 0 and obj.dtype == np.float64
                and math.isfinite(obj.max()) and math.isfinite(obj.min())):
            _layout_grid(obj, newline, emit)
            return
        obj = list(obj) if obj.ndim > 1 else obj.tolist()
    inner = newline + "  "
    if isinstance(obj, (list, tuple)) and obj:
        emit("[" + inner)
        separator = "," + inner
        if set(map(type, obj)) <= {float, int}:
            for start in range(0, len(obj), _SLICE):
                if start:
                    emit(separator)
                emit(json.dumps(obj[start:start + _SLICE], separators=(separator, ": "))[1:-1])
        else:
            for i, item in enumerate(obj):
                if i:
                    emit(separator)
                _layout(item, inner, emit)
        emit(newline + "]")
    elif isinstance(obj, dict) and obj:
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            emit(separator + _json_key(key) + ": ")
            _layout(value, inner, emit)
            separator = "," + inner
        emit(newline + "}")
    else:
        emit(json.dumps(obj))


def _layout_grid(grid: np.ndarray, newline: str, emit):
    """The text of a square, finite float64 grid as ``_layout`` lays out its
    ``tolist()``, one row per ``emit``.

    Each entry is written as a sign and a magnitude, "-" wherever its sign
    bit is set, and the magnitude's text is the ``_float_text`` of |g_ij|,
    as the C encoder writes a finite float.  The magnitudes of row i from
    the diagonal on are formatted when the row is written; that of (i, j),
    j > i, is held until row j, where it serves the mirrored entry (j, i)
    if that one's magnitude has the same bits.  A lower entry whose
    magnitude differs from its mirror's is formatted itself.  So an exactly
    Hermitian part, real or imaginary, formats n (n + 1) / 2 magnitudes, not
    n^2.  The held texts are kept in one list per column, which row i takes
    whole and drops, so at most about n^2 / 4 are held at once.  Signs and
    magnitudes are compared one row and one column slice at a time.
    """
    inner, entry = newline + "  ", newline + "    "
    separator = "," + entry
    # columns[c]: texts of |g_jc| for the rows j written so far, j < c;
    # column i becomes the head of row i, and is then dropped
    columns = [[] for _ in range(grid.shape[0])]
    emit("[" + inner)
    for i, row in enumerate(grid):
        upper = list(map(_float_text, np.abs(row[i:]).tolist()))
        texts, columns[i] = columns[i], None
        if i:
            for j in np.flatnonzero(np.abs(row[:i]) != np.abs(grid[:i, i])).tolist():
                texts[j] = _float_text(abs(float(row[j])))
        for column, text in zip(columns[i + 1:], upper[1:]):
            column.append(text)
        texts += upper
        for j in np.flatnonzero(np.signbit(row)).tolist():
            texts[j] = "-" + texts[j]
        emit(("," + inner if i else "") + "[" + entry + separator.join(texts) + inner + "]")
    emit(newline + "]")


def _json_key(key) -> str:
    """An object key as ``json`` writes it: numbers, bools and null quoted."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_report(path: str, report: dict, quiet: bool):
    """Write ``_pretty(report)`` and a newline, each chunk of ``_layout`` to
    the file as it comes; the file's own buffer gathers them, so the whole
    text is never held at once."""

    def fill(handle):
        _layout(report, "\n", handle.write)
        handle.write("\n")

    _write_output(path, fill, quiet)


def cmd_decompose(args) -> int:
    kind, (obj_s, digest_s), (obj_t, digest_t) = _load_pair(args.s_path, args.t_path, hashed=True)
    started = time.perf_counter()
    if kind == "functional":
        raise ValidationError("decompose expects matrix or sequence inputs, not functionals")
    parse = psd_from_json if kind == "matrix" else sequence_from_json
    # each decoded file is dropped once parsed, so the operand is the one
    # copy of it the request holds
    s = parse(obj_s)
    del obj_s
    t = parse(obj_t)
    del obj_t
    inputs = {"s": _echo(s, kind, digest_s), "t": _echo(t, kind, digest_t)}
    if kind == "matrix":
        dec = decompose(s, t)
        # the grids are float views that keep the two parts' arrays alive,
        # and nothing else of the decomposition
        body = {
            "ac": _matrix_grids(dec.ac),
            "sing": _matrix_grids(dec.sing),
            "unique": dec.uniqueness.unique,
            "c": _json_number(dec.uniqueness.c),
            "iterations": [{"k": step.k, "gap": step.gap} for step in dec.trace_of_iteration.steps],
        }
        del dec
    else:
        split = _diag_split(s, t)
        body = {
            "ac": sequence_to_json(split.ac),
            "sing": sequence_to_json(split.sing),
            "unique": split.certificate.bounded,
            "c": _json_number(split.certificate.constant()),
            "iterations": [],
        }
    # the operands and the decomposition are freed before the report is written
    del s, t
    report = {
        "inputs": inputs,
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
    # each decoded file is dropped once parsed, as in cmd_decompose
    g = _as_functional(obj_g)
    del obj_g
    f = _as_functional(obj_f)
    del obj_f
    cert = functional_uniqueness(g, f)
    print(json.dumps({"unique": cert.unique, "c": _json_number(cert.c)}, sort_keys=True))
    return EXIT_OK


def cmd_counterexample(args) -> int:
    obj, digest = _load_json(args.lambda_path, hashed=True)
    if _sniff_kind(obj) != "sequence":
        raise ValidationError("counterexample input must be a sequence JSON")
    lam = sequence_from_json(obj)
    mu, certificate = _verified_companion(lam)
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
    if kind == "functional":
        raise ValidationError("converge-report expects matrix or sequence inputs")
    if kind == "matrix":
        parse = psd_from_json
    else:
        if args.truncate > MAX_TRUNCATE:
            raise ValidationError(f"truncation size must be <= {MAX_TRUNCATE}, got {args.truncate}")

        def parse(obj):
            return truncate_to_matrix(sequence_from_json(obj), args.truncate)

    # each decoded file is dropped once parsed, as in cmd_decompose
    s = parse(obj_s)
    del obj_s
    t = parse(obj_t)
    del obj_t
    _, trace = ac_part_iterative(s, t)

    def fill(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["k", "n", "gap_trace", "c_bound"])
        for step in trace.steps:
            writer.writerow([step.k, 2**step.k, repr(step.gap), repr(step.c_bound)])

    _write_output(args.csv_path, fill, args.quiet)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplebesgue",
        description="Lebesgue decompositions of PSD operators: certificates, "
        "uniqueness checks and counterexample construction.",
    )
    parser.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATE,
                        help=f"sequence-to-matrix truncation size, at most {MAX_TRUNCATE}")
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
    # accepted and ignored: the companion is built in closed form, with no horizon
    p.add_argument("--horizon", help=argparse.SUPPRESS)
    p.set_defaults(handler=cmd_counterexample)

    p = commands.add_parser("converge-report",
                            help="CSV trace of the monotone approximants for (S, T)")
    p.add_argument("s_path")
    p.add_argument("t_path")
    p.add_argument("csv_path")
    p.set_defaults(handler=cmd_converge_report)
    return parser


# the parser depends on no input and parsing leaves it as it was, so the
# first main call builds it and every later call in the process reuses it
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        return _fail(str(exc), EXIT_INVALID)
    except ConsistencyError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
