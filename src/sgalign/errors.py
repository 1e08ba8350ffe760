"""Exception types shared across the package, and the parse-boundary
helpers that raise them: the type of an argument, the numeric bounds of
flags, params fields and function arguments, array shapes and widths,
sets of pairs, the field type check of the params dataclasses, the
mapping between a params dataclass and its config section, the one reader
of JSON files and the one opener of npz archives.

A params dataclass (EncoderConfig, MatcherParams, MnnParams, McfParams,
EdgeParams, RetrievalParams) is the schema of its config section: the
section lists exactly its fields, in field order, each under its name or,
where DOCUMENT_KEYS says so, under another key. A field with a numeric
bound declares it once, as field metadata {"bound": <a key of BOUNDS>}.
"""

from __future__ import annotations

import dataclasses
import io
import json
import numbers
import zipfile
from pathlib import Path

import numpy as np
import orjson


class SgaError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SgaError, ValueError):
    """An argument violates a documented precondition."""


class ShapeError(SgaError, ValueError):
    """Array dimensions do not match the configured feature layout."""


class NumericError(SgaError, ArithmeticError):
    """A computation produced non-finite values."""


class GenerationError(SgaError, RuntimeError):
    """Synthetic generation could not satisfy its constraints."""


class DegenerateGeometryError(SgaError, ValueError):
    """Input geometry does not constrain the requested estimate."""


class WeightsFormatError(SgaError, ValueError):
    """A weights file is malformed or lists wrong tensor names."""


# Params fields whose config document key differs from the field name.
DOCUMENT_KEYS = {"lam": "lambda"}

# Numeric bounds as a refusal states them ("<name> must be <rule>, got
# <value>"): the numbers ABC a value under the rule belongs to, and the
# rule's test, which holds elementwise on an array (check_values).
BOUNDS = {
    ">= 0": (numbers.Integral, lambda v: v >= 0),
    ">= 1": (numbers.Integral, lambda v: v >= 1),
    "even and >= 2": (numbers.Integral, lambda v: (v >= 2) & (v % 2 == 0)),
    "> 0": (numbers.Real, lambda v: v > 0),
    "finite": (numbers.Real, np.isfinite),
    "finite and >= 0": (numbers.Real, lambda v: np.isfinite(v) & (v >= 0)),
    "finite and > 0": (numbers.Real, lambda v: np.isfinite(v) & (v > 0)),
    "in [0, 1]": (numbers.Real, lambda v: (v >= 0) & (v <= 1)),
    "in (0, 1]": (numbers.Real, lambda v: (v > 0) & (v <= 1)),
    "in [0, 1)": (numbers.Real, lambda v: (v >= 0) & (v < 1)),
}
_KIND_NAMES = {numbers.Integral: "an integer", numbers.Real: "a number"}


def check_type(name: str, value, cls: type) -> None:
    """Refuse `value` unless it is a `cls`: "<name> is not a(n) <cls>, got <type>"."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InvalidInputError(f"{name} is not {article} {cls.__name__}, "
                                f"got {type(value).__name__}")


def _check_kind(name: str, value, kind, what: str) -> None:
    """Reject `value` unless it is of the numbers ABC `kind` and not a bool.
    A number also refuses an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InvalidInputError(f"{name} must be {what}, got {value!r}")
    if kind is not numbers.Integral and isinstance(value, numbers.Integral):
        try:
            float(value)
        except OverflowError:
            raise InvalidInputError(f"{name} must be {what} within the float range") from None


def check_bound(name: str, value, rule: str, where: str | None = None) -> None:
    """Reject `value` unless it is one number (not an array) of the kind of
    BOUNDS[rule] that meets the rule: "[where: ]<name> must be ..."."""
    kind, test = BOUNDS[rule]
    name = f"{where}: {name}" if where else name
    _check_kind(name, value, kind, _KIND_NAMES[kind])
    if not test(float(value) if kind is numbers.Real else value):  # np.isfinite: no big int
        raise InvalidInputError(f"{name} must be {rule}, got {value}")


def check_values(name: str, values: np.ndarray, rule: str) -> None:
    """check_bound on each entry of the float array `values`, in one
    vectorised pass; the refusal shows the first entry that breaks the rule."""
    bad = values[~np.asarray(BOUNDS[rule][1](values))]
    if bad.size:
        raise InvalidInputError(f"{name} must be {rule}, got {bad[0]}")


def as_array(name: str, value, shape: tuple | None, where: str | None = None,
             error=InvalidInputError) -> np.ndarray:
    """`value` as a float array of `shape` (None: any shape), a None size
    matching any; else `error` "[where: ]<name> is not an array of numbers",
    "... must be 2-D" or "... must have shape"."""
    prefix = f"{where}: " if where else ""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # "abc", ragged, 10**400
        raise error(f"{prefix}{name} is not an array of numbers ({exc})") from exc
    if shape is not None and (arr.ndim != len(shape)
                              or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        want = (f"be {len(shape)}-D, got shape" if set(shape) == {None}
                else f"have shape {shape}, got")
        raise error(f"{prefix}{name} must {want} {arr.shape}")
    return arr


def check_widths(where: str, name_a: str, width_a: int, name_b: str, width_b: int) -> None:
    """Reject arrays of two widths: InvalidInputError "<where>: <name_a> has
    width <width_a> and <name_b> width <width_b>; they must be the same"."""
    if width_a != width_b:
        raise InvalidInputError(f"{where}: {name_a} has width {width_a} and {name_b} width "
                                f"{width_b}; they must be the same")


def as_int64(value, what: str, *args) -> int:
    """`value` as an int, if it is an integer (or a float with an integral
    value) within int64; anything else raises InvalidInputError naming
    `what.format(*args)`. A plain int needs only the range check."""
    if type(value) is not int and (isinstance(value, float) and value.is_integer()
                                   or isinstance(value, np.integer)):
        value = int(value)
    if (type(value) is not int and (isinstance(value, bool) or not isinstance(value, int))
            or not -2 ** 63 <= value < 2 ** 63):
        raise InvalidInputError(f"{what.format(*args)} must be an integer within int64, "
                                f"got {value!r}")
    return value


def as_pairs(name: str, values, what: str) -> set[tuple[int, int]]:
    """The entries of `values` as a set of 2-tuples of ints; the first that
    is not a pair raises InvalidInputError "<name> must be <what>, got
    <entry>", and the first with a member that `as_int64` refuses raises
    "<name> <entry>: a member must be an integer within int64, got ..."."""
    pairs = set()
    for value in values:
        try:
            pair = tuple(value)
        except TypeError:  # not iterable
            pair = ()
        if len(pair) != 2:
            raise InvalidInputError(f"{name} must be {what}, got {value!r}")
        pairs.add(tuple(as_int64(v, "{} {!r}: a member", name, value) for v in pair))
    return pairs


def check_bounds(params) -> None:
    """check_bound on each field of the params dataclass whose metadata
    declares a "bound" (a key of BOUNDS), in field order. Errors name the
    field by its document key."""
    for f in dataclasses.fields(params):
        if "bound" in f.metadata:
            check_bound(DOCUMENT_KEYS.get(f.name, f.name), getattr(params, f.name),
                        f.metadata["bound"])


def check_sizes(name: str, value) -> None:
    """Reject `value` unless it is a tuple or list of two integers >= 1."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2
            and all(not isinstance(n, bool) and isinstance(n, numbers.Integral) and n >= 1
                    for n in value)):
        raise InvalidInputError(f"{name} must be two integers >= 1, got {value!r}")


def check_types(params, kind, what: str, names: tuple[str, ...]) -> None:
    """_check_kind on each field of `params` in `names`; errors name the
    field by its document key."""
    for name in names:
        _check_kind(DOCUMENT_KEYS.get(name, name), getattr(params, name), kind, what)


def section_dict(params) -> dict:
    """The config section of a params dataclass: every field under its
    document key, in field order, with tuples written as lists."""
    section = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        section[DOCUMENT_KEYS.get(f.name, f.name)] = (
            list(value) if isinstance(value, tuple) else value)
    return section


def from_section(default, doc: dict) -> tuple[object, list[str]]:
    """(`default` with the fields that `doc` names replaced, the keys of
    `doc` that name no field). A tuple field must be given as a list. The
    dataclass checks the result, so a bad value raises InvalidInputError."""
    names = {DOCUMENT_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(default)}
    changes, unknown = {}, []
    for key, value in doc.items():
        if key not in names:
            unknown.append(key)
            continue
        if isinstance(getattr(default, names[key]), tuple):
            if not isinstance(value, list):
                raise InvalidInputError(f"{key} must be a list, got {value!r}")
            value = tuple(value)
        changes[names[key]] = value
    return dataclasses.replace(default, **changes), unknown


# Where orjson may decode a document differently from json.loads, or not
# safely, read_json leaves it to json.loads:
# - An integer literal of 19 or more digits may lie outside the 64-bit
#   ranges, and orjson returns such an integer as a float. Every such
#   literal, and some digits in strings and exponents, is a run of 19
#   digits after a byte that is neither a digit nor "." (or at the start).
# - json.loads refuses a document nested about as deep as the interpreter's
#   recursion limit (1000 frames by default, less the caller's own stack).
#   orjson has no such limit, and text nested some 10^5 deep overflows its
#   C stack. It gets only text whose brackets nest at most _FAST_DEPTH deep.
# Both checks read one translation of the text into byte classes: "0" for a
# digit, "." for ".", "[" for an opening bracket ("[" or "{") and "x" for
# any other byte.
_BYTE_CLASS = bytes(ord("0") if c in b"0123456789" else ord("[") if c in b"[{"
                    else c if c == ord(".") else ord("x") for c in range(256))
_LONG_DIGITS = b"0" * 19
_FAST_DEPTH = 200


def _orjson_decodes_as_json(data: bytes) -> bool:
    """Whether orjson's document of `data` is bound to equal json.loads':
    no run of 19 digits after a byte other than a digit or "." (or at the
    start), and brackets that nest at most _FAST_DEPTH deep. The opening
    brackets are counted one by one, and each is checked for 19 digits
    after it, up to _FAST_DEPTH of them; past that, `_nesting_depth`
    bounds the nesting."""
    classes = data.translate(_BYTE_CLASS)
    if classes.startswith(_LONG_DIGITS) or classes.rfind(b"x" + _LONG_DIGITS) >= 0:
        return False
    at = classes.find(b"[")
    for _ in range(_FAST_DEPTH):
        if at < 0:
            return True
        if classes.startswith(_LONG_DIGITS, at + 1):
            return False
        at = classes.find(b"[", at + 1)
    return at < 0 or (classes.rfind(b"[" + _LONG_DIGITS) < 0 and b"\\" not in data
                      and _nesting_depth(data) <= _FAST_DEPTH)


def _nesting_depth(data: bytes) -> int:
    """The most brackets open at once outside strings in the JSON text
    `data`, which has no backslash, so that every quote opens or closes a
    string. A parser stops at the first closing bracket that closes
    nothing, so later ones cannot deepen it."""
    text = np.frombuffer(data, np.uint8)
    opens = np.flatnonzero((text == ord("[")) | (text == ord("{")))
    quotes = np.flatnonzero(text == ord('"'))
    closes = np.flatnonzero((text == ord("]")) | (text == ord("}")))
    opens = opens[np.searchsorted(quotes, opens) % 2 == 0]
    closes = closes[np.searchsorted(quotes, closes) % 2 == 0]
    # the brackets open just after each opening one
    return int((np.arange(1, len(opens) + 1) - np.searchsorted(closes, opens)).max(initial=0))


def read_json(path):
    """The JSON document in the file at `path`, equal to what json.loads
    makes of its UTF-8 text. Text that is not UTF-8, not JSON or nested too
    deeply to decode raises InvalidInputError naming the file; an OSError
    passes through.

    orjson decodes the bytes wherever its document is bound to equal that of
    json.loads. Where it refuses them (NaN and Infinity literals, a number
    that overflows a double, a lone surrogate, a BOM or any bytes that are
    not UTF-8 JSON), or where an integer literal or the nesting could decode
    differently (see _orjson_decodes_as_json), json.loads decodes the text
    as it is read in text mode, and its document or its error is the
    result."""
    data = Path(path).read_bytes()
    if _orjson_decodes_as_json(data):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    try:
        # Text mode reads "\r\n" and "\r" as "\n", so json's error positions
        # are those of a file opened as text.
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except (ValueError, RecursionError) as exc:  # ValueError: JSON and UTF-8 errors
        raise InvalidInputError(f"{path}: unreadable JSON: {exc}") from exc


_ZIP_MAGIC = b"PK"  # every zip archive, empty ones too, starts with these bytes
_NPZ_ERRORS = (zipfile.BadZipFile, EOFError, ValueError)  # damaged archive or entry


def open_npz(fh, what: str, error=InvalidInputError):
    """The npz archive in the binary file `fh`, as np.load returns it. np.load
    would hand back a bare array for a .npy file and report a JSON file as
    pickled data, so bytes that do not start with the zip magic raise
    `error("not an <what>")`; a damaged archive raises `error` too."""
    if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
        raise error(f"not an {what}")
    fh.seek(0)
    try:
        return np.load(fh, allow_pickle=False)
    except _NPZ_ERRORS as exc:
        raise error(f"unreadable npz archive: {exc}") from exc


def npz_entry(archive, name: str, error=InvalidInputError) -> np.ndarray:
    """Entry `name` of an archive from `open_npz`; a damaged one raises `error`."""
    try:
        return archive[name]
    except _NPZ_ERRORS as exc:
        raise error(f"npz entry {name}: {exc}") from exc


class ConfigError(SgaError, ValueError):
    """A configuration value violates its constraint.

    Carries the dotted field name so callers can report precisely.
    """

    def __init__(self, field: str, constraint: str):
        self.field = field
        self.constraint = constraint
        super().__init__(f"config field '{field}': {constraint}")
