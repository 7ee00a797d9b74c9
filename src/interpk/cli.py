"""Command-line surface.

    interpk kprofile      --config c.json --out out.json [--format json|csv]
    interpk interp-norm   --config c.json --out out.json
    interpk lattice-norm  --config c.json --out out.json
    interpk snumbers      --matrix m.json --out out.csv
    interpk ideal-norm    --matrix m.json --p P --q Q --out out.json
    interpk witness       --p P --q Q --n N [--p-star PS --q-star QS] --out out.csv
    interpk lift          --config c.json --out out.csv
    interpk strictness    --theta T --q Q --n-list 2,4,8 --out out.csv
    interpk verify CHECK  --config c.json --seed S --out out.json

Exit codes: 0 success; 2 a config error: a config or matrix path that
cannot be read, malformed JSON, an unknown, missing or wrongly typed key, a
value the library rejects, or an artifact path that cannot be written (the
message names the path); 3 a verify band failed.  Any other exception is a
bug and propagates.  Reports are deterministic: identical (argv, config,
seed) produce byte-identical files.  Every successful run writes exactly
one artifact, plus the trace CSV with ``verify --trace``; the report is
opened before the trace is written, and when either cannot be written,
neither is left behind as a new file.

Every artifact (JSON report, CSV, ``verify --trace`` CSV) goes through
``_artifact``: the path is opened for writing and created if missing, but
without ``O_TRUNC``, so an existing file is overwritten in place; once the
artifact is written, a regular file is trimmed to the bytes written.  A
device, FIFO or tty (``/dev/null``) is only written.  The bytes, the mode
of a new or existing file, symlinks and hard links and the mtime update are
those of ``open(path, "w")``.  The reason is ext4: with its default
``auto_da_alloc`` it forces writeback when a file truncated to zero is
closed, which made rerunning onto the same ``--out`` several times dearer
than writing the same bytes in place.  Neither way is atomic and neither
syncs; a crash in mid-write may now leave the old file's tail after the new
bytes, where truncating first would leave a short file.

A JSON report holds the bytes of ``json.dumps(payload, sort_keys=True,
indent=2)`` plus a newline; ``_json_text`` writes them without the stdlib's
pure-Python indenting encoder.  It writes a ``str`` key or value with the
stdlib's ASCII string escaper, an exact ``int`` or finite exact ``float``
with ``repr`` (what ``json`` writes for them), and an all-finite list of
plain numbers with one ``join``; any other leaf (NaN, infinities, numpy
scalars, booleans, None) and a dict with a non-``str`` key go to
``json.dumps``.  A CSV whose rows are all exact ints and floats is written
as ``repr`` fields joined by commas, the bytes ``csv.writer`` writes for
them; ``lift`` hands its rows over already joined, calling ``repr`` once
for xi_n and eps_n where the two are equal; any other CSV goes through
``csv.writer``.

The CLI is the one module that reads config JSON.  ``_take`` checks each
config object against its schema before anything is built: a command's
config, the matrix file and the nested couple, norm0/norm1 and vector
objects have theirs in ``CONFIG_SCHEMAS``, and a verify check's schema is
its signature.  An unknown key, a missing required key or a value of
another JSON type is refused with a message that names the key's path
(``couple.norm0.p``); null counts as absent at every depth, and an exponent
is read by ``couples._parse_p``.  The command then builds the library's
objects from the checked values; a list becomes a float array, and an
entry beyond the float range is refused naming its key.  A report's config
echo is the config as given, with the top-level defaults filled in.

A plain call, ``COMMAND [CHECK] --opt value ...`` with every option spelled
in full and given once and every value valid, is read off ``_COMMANDS``
into the namespace argparse would return, and builds no parser.  Any other
call (help, ``--version``, abbreviations, ``--opt=value``, repeats, values
starting with "-", a bad or missing value) goes to the full argparse parser,
so argparse alone prints help, usage lines and errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import itertools
import json
import math
import os
import stat
import sys
import typing

import numpy as np

from . import __version__, verify
from .couples import Couple, FiniteVector, WeightedNorm, _parse_p, k_profile
from .errors import DomainError, InterpKError
from .interp import (DEFAULT_N_MAX, DEFAULT_N_MIN, InterpParams, LatticeParam,
                     interp_norm_from_profile, lattice_norm,
                     truncation_terms)
from .lethargy import DecaySpec, lift_sequence, strictness_sweep
from .snum import (LorentzParams, MatrixOperator, approx_numbers, ideal_norm,
                   witness_samples)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED_BAND = 3


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}"
                          ) from exc
    except ValueError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


# kind -> whether a JSON value is of that kind.  ``json`` loads exact
# types, and a bool is no number.  The one other kind, an exponent, is read
# through ``couples._parse_p``.
_NUMBERS = {int, float}


def _list_of(types: set):
    return lambda value: (type(value) is list
                          and set(map(type, value)) <= types)


_is_list_of_lists = _list_of({list})
_KINDS = {
    "integer": lambda value: type(value) is int,
    "number": lambda value: type(value) in _NUMBERS,
    "string": lambda value: type(value) is str,
    "object": lambda value: type(value) is dict,
    "list of integers": _list_of({int}),
    "list of numbers": _list_of(_NUMBERS),
    "list of lists of numbers": lambda value: (
        _is_list_of_lists(value)
        and set(map(type, itertools.chain.from_iterable(value))) <= _NUMBERS),
}
_EXPONENT = 'number or "inf"'


# the default of a required key in a schema (key -> (kind, default))
_REQUIRED = inspect.Parameter.empty


def _take(config: dict, schema: dict, path: str = "") -> dict:
    """``config`` checked against ``schema`` (key -> (kind, default)), with
    every default filled in.

    An unknown key, a missing required key and a value not of its key's
    kind are ConfigErrors that name the key by its path, ``path`` + key
    (such as ``couple.norm0.p``).  A key given as null counts as absent: a
    required one is missing and an optional one takes its default.  Values
    are never converted: an exponent is only checked by ``_parse_p``, and a
    nested object is returned as given, for its own ``_take``.
    """
    if not config.keys() <= schema.keys():
        unknown = min(config.keys() - schema.keys())
        raise ConfigError(f"unknown config key: {path}{unknown}")
    config = {k: v for k, v in config.items() if v is not None}
    out = {}
    for key, (_, default) in schema.items():
        if key not in config:
            if default is _REQUIRED:
                raise ConfigError(f"missing config key: {path}{key}")
            out[key] = default
    for key, value in config.items():
        kind = schema[key][0]
        if kind == _EXPONENT:
            try:
                _parse_p(value, f"exponent {key}")
            except DomainError as exc:
                raise ConfigError(f"config key {path}{key}: {exc}") from exc
        elif not _KINDS[kind](value):
            raise ConfigError(f"wrongly typed config key {path}{key}: "
                              f"{json.dumps(value)}")
        out[key] = value
    return out


# json's own escaper for str keys and values (``ensure_ascii`` is on)
_json_str = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str = "") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, nested at indent ``pad``.

    That call always runs the pure-Python encoder.  Here a ``str`` is
    escaped as ``json`` escapes it, an exact ``int`` or finite exact
    ``float`` is its ``repr`` (``json`` writes ``int.__repr__`` and
    ``float.__repr__``), and a list of them is one ``join``.  Every other
    leaf (NaN, infinities, numpy scalars, booleans, None), a list of plain
    numbers holding a NaN or infinity, and a dict with a non-``str`` key is
    one ``json.dumps`` call.
    """
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            # the stdlib converts and sorts other keys itself
            return json.dumps(value, sort_keys=True,
                              indent=2).replace("\n", "\n" + pad)
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            f"{_json_str(k)}: {_json_text(value[k], inner)}"
            for k in sorted(value))
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= {int, float}:
            body = (",\n" + inner).join(map(repr, value))
            if "n" in body:     # a nan or inf; finite reprs have no "n"
                body = json.dumps(value)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join(_json_text(x, inner) for x in value)
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(value)


def _no_trunc(path, flags):
    """``os.open`` as ``open(path, "w")`` calls it (mode 0o666), but
    without ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _artifact(path: str, newline: str | None = None):
    """``open(path, "w", encoding="utf-8", newline=newline)``, except that
    an existing file is overwritten in place, not truncated first.  On the
    way out a regular file is trimmed to where the writing stopped; any
    other file (a device, a FIFO) is only written.

    A path that cannot be opened or written is a ConfigError that names
    it.  If the body raises (say, another artifact written while this one
    is open fails), nothing is trimmed and a file this call created is
    removed again.
    """
    created = not os.path.lexists(path)
    try:
        fh = open(path, "w", encoding="utf-8", newline=newline,
                  opener=_no_trunc)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}"
                          ) from exc
    try:
        with fh:
            yield fh
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: "
                              f"{exc.strerror or exc}") from exc
        raise


def _dump_json(payload: dict, out_path: str) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``,
    byte for byte, through the faster ``_json_text``."""
    text = _json_text(payload)
    with _artifact(out_path) as fh:
        fh.write(text + "\n")


def _dump_csv(header, rows, out_path: str, comments=(), rendered=False):
    """Write ``comments`` as "# " lines, then ``header`` and ``rows`` as
    ``csv.writer`` writes them.

    When every field is an exact ``int`` or ``float`` the rows are written
    directly: ``csv.writer`` writes such a field as its ``repr`` (``nan``,
    ``inf`` and ``-0.0`` included), which never needs quoting, and ends a
    row with "\\r\\n".  ``rendered`` rows are such lines already, without
    the "\\r\\n".  Any other row set, and the header, goes through
    ``csv.writer``.
    """
    rows = list(rows)
    if not rendered and set(map(type, itertools.chain.from_iterable(rows))
                            ) <= {int, float}:
        rows, rendered = (",".join(map(repr, row)) for row in rows), True
    with _artifact(out_path, newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        if rendered:
            fh.writelines(row + "\r\n" for row in rows)
        else:
            writer.writerows(rows)


def _report_payload(command: str, config: dict, body: dict) -> dict:
    return {"version": __version__, "command": command,
            "config": config, "report": body}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Every config object the CLI reads (commands and the matrix file at the
# top level, the nested couple, norm0/norm1 and vector) and its keys; the
# verify checks' schemas come from their signatures (``_check_schema``).
_PROFILE_KEYS = {"couple": ("object", _REQUIRED),
                 "vector": ("object", _REQUIRED)}
_WINDOW_KEYS = {"n_min": ("integer", DEFAULT_N_MIN),
                "n_max": ("integer", DEFAULT_N_MAX)}
CONFIG_SCHEMAS = {
    "kprofile": {**_PROFILE_KEYS, **_WINDOW_KEYS},
    "interp-norm": {**_PROFILE_KEYS, "theta": ("number", _REQUIRED),
                    "q": (_EXPONENT, _REQUIRED), **_WINDOW_KEYS},
    "lattice-norm": {**_PROFILE_KEYS, "r": (_EXPONENT, _REQUIRED),
                     "lattice_weights": ("list of numbers", _REQUIRED),
                     "n_min": _WINDOW_KEYS["n_min"]},
    "lift": {"epsilon": ("list of numbers", _REQUIRED),
             "h": ("list of integers", _REQUIRED),
             "N": ("integer", _REQUIRED)},
    "matrix": {"entries": ("list of lists of numbers", _REQUIRED),
               "rows": ("integer", None), "cols": ("integer", None)},
    "couple": {"norm0": ("object", _REQUIRED), "norm1": ("object", _REQUIRED),
               "strategy": ("string", _REQUIRED), "offset": ("integer", 0)},
    # a norm's offset defaults to the couple's
    "norm": {"p": (_EXPONENT, _REQUIRED),
             "weights": ("list of numbers", _REQUIRED),
             "offset": ("integer", None)},
    "vector": {"entries": ("list of numbers", _REQUIRED),
               "offset": ("integer", 0)},
}


def _array(values: list, path: str, dtype=float) -> np.ndarray:
    """A checked list of numbers (or of lists of them) as an array; an
    integer beyond the range of ``dtype``, or rows of unequal length, is a
    ConfigError naming ``path``."""
    try:
        return np.asarray(values, dtype=dtype)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"config key {path}: {exc}") from exc


def _profile_config(path: str, command: str):
    """(cfg, couple, x) of a profile command's config file: every level
    checked against its schema, then the couple and the vector built."""
    cfg = _take(_load_json(path), CONFIG_SCHEMAS[command])
    couple = _take(cfg["couple"], CONFIG_SCHEMAS["couple"], "couple.")
    norms = {k: _take(couple[k], CONFIG_SCHEMAS["norm"], f"couple.{k}.")
             for k in ("norm0", "norm1")}
    vector = _take(cfg["vector"], CONFIG_SCHEMAS["vector"], "vector.")
    norm0, norm1 = (
        WeightedNorm(n["p"],
                     couple["offset"] if n["offset"] is None else n["offset"],
                     _array(n["weights"], f"couple.{k}.weights"))
        for k, n in norms.items())
    return (cfg, Couple(norm0, norm1, couple["strategy"]),
            FiniteVector(vector["offset"],
                         _array(vector["entries"], "vector.entries")))


def _cmd_kprofile(args) -> int:
    cfg, couple, x = _profile_config(args.config, "kprofile")
    prof = k_profile(x, couple, cfg["n_min"], cfg["n_max"])
    if args.format == "csv":
        rows = [(int(n), float(t), float(v))
                for n, t, v in zip(prof.grid, prof.t_values, prof.values)]
        _dump_csv(("n", "t", "K"), rows, args.out,
                  comments=(f"interpk {__version__} kprofile",))
    else:
        _dump_json(_report_payload("kprofile", cfg, prof.to_json()), args.out)
    return EXIT_OK


def _cmd_interp_norm(args) -> int:
    cfg, couple, x = _profile_config(args.config, "interp-norm")
    params = InterpParams(cfg["theta"], cfg["q"])
    prof = k_profile(x, couple, cfg["n_min"], cfg["n_max"])
    value = interp_norm_from_profile(prof, params)
    body = {"value": value, "truncation": truncation_terms(prof, params)}
    _dump_json(_report_payload("interp-norm", cfg, body), args.out)
    return EXIT_OK


def _cmd_lattice_norm(args) -> int:
    cfg, couple, x = _profile_config(args.config, "lattice-norm")
    E = LatticeParam(cfg["r"], cfg["n_min"],
                     _array(cfg["lattice_weights"], "lattice_weights"))
    value = lattice_norm(x, couple, E)
    _dump_json(_report_payload("lattice-norm", cfg, {"value": value}),
               args.out)
    return EXIT_OK


def _matrix(path: str) -> MatrixOperator:
    """The matrix of a matrix file; its optional rows and cols must match
    the entries."""
    cfg = _take(_load_json(path), CONFIG_SCHEMAS["matrix"])
    T = MatrixOperator(_array(cfg["entries"], "entries"))
    for key, size in (("rows", T.rows), ("cols", T.cols)):
        if cfg[key] not in (None, size):
            raise ConfigError(f"config key {key}: {cfg[key]}, but the "
                              f"matrix has {size}")
    return T


def _cmd_snumbers(args) -> int:
    seq = approx_numbers(_matrix(args.matrix))
    rows = zip(range(1, len(seq) + 1), seq.values.tolist())
    _dump_csv(("n", "a_n"), rows, args.out,
              comments=(f"interpk {__version__} snumbers",))
    return EXIT_OK


def _cmd_ideal_norm(args) -> int:
    value = ideal_norm(_matrix(args.matrix), LorentzParams(args.p, args.q))
    cfg = {"matrix": args.matrix, "p": args.p, "q": args.q}
    _dump_json(_report_payload("ideal-norm", cfg, {"value": value}), args.out)
    return EXIT_OK


def _cmd_witness(args) -> int:
    if args.max_rows < 1:
        raise ConfigError(f"--max-rows must be >= 1, got {args.max_rows}")
    p_star = args.p if args.p_star is None else args.p_star
    q_star = args.q if args.q_star is None else args.q_star
    rows, report = witness_samples(args.p, args.q, args.n, p_star, q_star,
                                   max(1, args.n // args.max_rows))
    _dump_csv(("n", "s_n", "summand", "partial_sum"), rows, args.out,
              comments=(f"interpk {__version__} witness p={args.p} q={args.q}",
                        f"probe p={p_star} q={q_star} "
                        f"flag={report.probes[0].flag}"))
    return EXIT_OK


def _cmd_lift(args) -> int:
    cfg = _take(_load_json(args.config), CONFIG_SCHEMAS["lift"])
    spec = DecaySpec(_array(cfg["epsilon"], "epsilon"),
                     _array(cfg["h"], "h", int))
    xi = lift_sequence(spec, cfg["N"]).tolist()
    eps = spec.epsilon[:len(xi)].tolist()
    # eps_n and xi_n are positive and finite, so where they are equal they
    # have the same bits and one repr serves both
    eps_text = list(map(repr, eps))
    xi_text = [text if x == e else repr(x)
               for text, e, x in zip(eps_text, eps, xi)]
    rows = map(",".join, zip(map(str, range(1, len(xi) + 1)), eps_text,
                             xi_text))
    _dump_csv(("n", "eps_n", "xi_n"), rows, args.out,
              comments=(f"interpk {__version__} lift",), rendered=True)
    return EXIT_OK


def _cmd_strictness(args) -> int:
    try:
        n_list = [int(s) for s in args.n_list.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"--n-list: {exc}") from exc
    params = InterpParams(args.theta, args.q)
    if not n_list:
        raise ConfigError("empty --n-list")
    reports = strictness_sweep(n_list, params)
    rows = [(r.N, r.int_norm, r.sum_norm, r.interp_norm) for r in reports]
    _dump_csv(("N", "int_norm", "sum_norm", "interp_norm"), rows, args.out,
              comments=(f"interpk {__version__} strictness "
                        f"theta={args.theta} q={args.q}",))
    return EXIT_OK


# CLI name -> check function in ``verify``.  Names, not functions, are
# stored and looked up at call time, so a rebinding of the module attribute
# (as a tracer does) also sees the calls made from here.  A check's config
# schema is its signature: every parameter but the run keys is a config key,
# and those without a default are required.
VERIFY_CHECKS = {
    "mainlema": "check_mainlema",
    "sum-intersection": "check_sum_intersection",
    "reiteration": "check_reiteration",
    "konig": "check_konig",
    "dichotomy": "dichotomy_sweep",
    "distinctness": "distinctness_demo",
}
_RUN_KEYS = ("seed", "keep_trace")


def _check_schema(check) -> tuple[dict, tuple, dict, set]:
    """(config key -> default, required keys, config key -> annotation,
    run keys taken) of a verify check function, from one signature read.

    ``verify`` does not postpone its annotations, so they are the objects
    its import built, and the read evaluates no annotation string."""
    params = inspect.signature(check).parameters
    keys = [p for name, p in params.items() if name not in _RUN_KEYS]
    defaults = {p.name: None if p.default is p.empty else p.default
                for p in keys}
    required = tuple(p.name for p in keys if p.default is p.empty)
    hints = {p.name: p.annotation for p in keys}
    return defaults, required, hints, set(_RUN_KEYS) & set(params)


# the kind of the values each verify parameter annotation takes; every
# verify parameter has one of these annotations
_ANNOTATION_KINDS = {int: "integer", float: "number", float | None: "number",
                     str: "string", dict: "object",
                     typing.Sequence[int]: "list of integers",
                     typing.Sequence[float]: "list of numbers"}


def verify_schema(check: str) -> tuple[dict, tuple]:
    """(config key -> default, required keys) of a verify check; a key
    without a default maps to None."""
    return _check_schema(getattr(verify, VERIFY_CHECKS[check]))[:2]


def _cmd_verify(args) -> int:
    check = getattr(verify, VERIFY_CHECKS[args.check])
    defaults, required, hints, run_keys = _check_schema(check)
    if "seed" in run_keys and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # each value must be of its parameter annotation's kind; a None
    # default (such as reiteration's p = r) is left to the check and not
    # echoed
    schema = {key: (_ANNOTATION_KINDS[hints[key]],
                    _REQUIRED if key in required else default)
              for key, default in defaults.items()}
    cfg = _take(_load_json(args.config) if args.config else {}, schema)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    run = {"seed": args.seed} if "seed" in run_keys else {}
    if args.trace and "keep_trace" in run_keys:
        run["keep_trace"] = True
    report = check(**cfg, **run)
    body = report.to_json()
    if run.get("keep_trace"):
        body["trace_path"] = args.trace
    payload = _report_payload(f"verify {args.check}",
                              {"seed": args.seed, **cfg}, body)
    text = _json_text(payload)
    # the report is opened before the trace is written, so a --out that
    # cannot be written leaves no trace CSV behind
    with _artifact(args.out) as fh:
        if run.get("keep_trace"):
            cols = (sorted(report.trace[0]) if report.trace
                    else ["size", "index", "ratio", "t"])
            rows = [tuple(row.get(c, "") for c in cols)
                    for row in report.trace]
            _dump_csv(cols, rows, args.trace,
                      comments=(f"interpk {__version__} trace verify "
                                f"{args.check}",))
        fh.write(text + "\n")
    return EXIT_OK if report.passed else EXIT_FAILED_BAND


# CLI name -> (handler, help, argument specs).  A spec is the argument's
# name and its ``add_argument`` keywords, in the order the subparser adds them.
_OUT = ("--out", {"required": True, "help": "output artifact path"})
_CONFIG = ("--config", {"required": True, "help": "JSON config file"})
_COMMANDS = {
    "kprofile": (_cmd_kprofile, "dyadic K-profile of a vector", (
        _OUT, _CONFIG,
        ("--format", {"choices": ("json", "csv"), "default": "json"}))),
    "interp-norm": (_cmd_interp_norm, "(theta, q) interpolation norm",
                    (_OUT, _CONFIG)),
    "lattice-norm": (_cmd_lattice_norm, "lattice-parameter E:K norm",
                     (_OUT, _CONFIG)),
    "snumbers": (_cmd_snumbers, "approximation numbers of a matrix", (
        ("--matrix", {"required": True, "help": "matrix JSON file"}),
        ("--out", {"required": True}))),
    "ideal-norm": (_cmd_ideal_norm, "Lorentz ideal norm of a matrix", (
        ("--matrix", {"required": True}),
        ("--p", {"type": float, "required": True}),
        ("--q", {"type": float, "required": True}),
        ("--out", {"required": True}))),
    "witness": (_cmd_witness, "separating witness sequence", (
        ("--p", {"type": float, "required": True}),
        ("--q", {"type": float, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--p-star", {"type": float, "default": None}),
        ("--q-star", {"type": float, "default": None}),
        ("--max-rows", {"type": int, "default": 256}),
        ("--out", {"required": True}))),
    "lift": (_cmd_lift, "sequence lifting construction", (_OUT, _CONFIG)),
    "strictness": (_cmd_strictness, "flat-vector strictness witness sweep", (
        ("--theta", {"type": float, "required": True}),
        ("--q", {"type": float, "required": True}),
        ("--n-list", {"required": True, "help": "comma-separated N values"}),
        ("--out", {"required": True}))),
    "verify": (_cmd_verify, "named verification experiment", (
        ("check", {"choices": sorted(VERIFY_CHECKS)}),
        ("--config", {"default": None, "help": "JSON config file"}),
        ("--seed", {"type": int, "required": True}),
        ("--out", {"required": True}),
        ("--trace", {"default": None,
                     "help": "also write the per-sample ratio trace CSV "
                             "here"}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, with a subparser for every command."""
    parser = argparse.ArgumentParser(
        prog="interpk",
        description="K-functionals, interpolation norms and s-number ideals "
                    "on finite windows")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg, kwargs in specs:
            p.add_argument(arg, **kwargs)
    return parser


# the ``add_argument`` keywords whose meaning ``_plain_args`` reproduces
_PLAIN_KEYWORDS = {"required", "default", "type", "choices", "help"}


def _plain_args(argv: list) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read off
    ``_COMMANDS`` without building a parser, or None unless ``argv`` is
    plain: ``COMMAND [POSITIONALS] --opt value ...`` with every option
    spelled in full and given at most once, no value starting with "-",
    each value passing its spec's ``type`` and ``choices``, every required
    argument present and every spec keyword in ``_PLAIN_KEYWORDS``.
    """
    specs = _COMMANDS[argv[0]][2] if argv and argv[0] in _COMMANDS else ()
    if not specs or any(kw.keys() - _PLAIN_KEYWORDS for _, kw in specs):
        return None
    options = {name for name, _ in specs if name.startswith("-")}
    positionals = [name for name, _ in specs if name not in options]
    k = 1 + len(positionals)
    flags, values = argv[k::2], argv[k + 1::2]
    if (len(flags) != len(values) or len(set(flags)) != len(flags)
            or not set(flags) <= options):
        return None
    given = dict(zip(positionals, argv[1:k]))
    given.update(zip(flags, values))
    args = argparse.Namespace(command=argv[0])
    for name, kw in specs:
        if name in given:
            value = given[name]
            if value.startswith("-"):
                return None
        elif kw.get("required") or name not in options:
            return None
        else:
            value = kw.get("default")
        if isinstance(value, str):   # argparse converts a str default too
            try:
                value = kw.get("type", str)(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if (name in given and "choices" in kw
                    and value not in kw["choices"]):
                return None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on bad usage already; re-raise clean exits
            if exc.code in (0, None):
                return EXIT_OK
            return EXIT_CONFIG
    try:
        return _COMMANDS[args.command][0](args)
    except (ConfigError, InterpKError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
