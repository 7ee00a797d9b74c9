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

Exit codes: 0 success; 2 a config error: malformed JSON, an unknown, missing
or wrongly typed key, or a value the library rejects; 3 a verify band
failed.  Any other exception is a bug and propagates.  Reports are
deterministic: identical (argv, config, seed) produce byte-identical files.
Every successful run writes exactly one artifact, plus the trace CSV with
``verify --trace``.

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
pure-Python indenting encoder.

A plain call, ``COMMAND [CHECK] --opt value ...`` with every option spelled
in full and given once and every value valid, is read off ``_COMMANDS``
into the namespace argparse would return, and builds no parser.  Any other
call (help, ``--version``, abbreviations, ``--opt=value``, repeats, values
starting with "-", a bad or missing value) goes to argparse, which builds
the parser of the invoked subcommand only, or of all of them when the
arguments do not start with a command name.  So argparse alone prints help,
usage lines and errors, and they read the same either way.
"""

from __future__ import annotations

import argparse
import collections.abc
import contextlib
import csv
import inspect
import json
import os
import stat
import sys
import types
import typing

import numpy as np

from . import __version__, verify
from .couples import Couple, FiniteVector, k_profile
from .errors import InterpKError
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
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


# JSON values each annotated Python type accepts (bool is no number)
_JSON_TYPES = {int: int, float: (int, float), str: str, dict: dict}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a type annotation.

    ``int`` takes a JSON integer, ``float`` any JSON number, ``str`` a
    string and ``dict`` an object; ``Sequence[X]`` takes a list of X, and
    ``X | None`` also null.  Any other annotation takes any value.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        return any(_fits(value, arg) for arg in args)
    if origin is collections.abc.Sequence:
        return isinstance(value, list) and all(_fits(v, args[0])
                                               for v in value)
    if hint is type(None):
        return value is None
    expected = _JSON_TYPES.get(hint)
    return expected is None or (isinstance(value, expected)
                                and not isinstance(value, bool))


def _take(config: dict, allowed: dict, required: tuple = (),
          hints: dict | None = None):
    """Validate keys against ``allowed`` (name -> default); reject unknowns.

    A key given as null counts as absent: a required one is missing and an
    optional one takes its default.  A value whose key has a type in
    ``hints`` must fit it; values are never converted.
    """
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    config = {k: v for k, v in config.items() if v is not None}
    missing = [k for k in required if k not in config]
    if missing:
        raise ConfigError(f"missing config key: {missing[0]}")
    for key, value in config.items():
        if hints and key in hints and not _fits(value, hints[key]):
            raise ConfigError(f"wrongly typed config key {key}: "
                              f"{json.dumps(value)}")
    out = dict(allowed)
    out.update(config)
    return out


@contextlib.contextmanager
def _parsing():
    """Turn the errors of converting config values into ConfigError.

    Only the parse step runs under it, so the same exception types raised
    while computing still surface as bugs.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _json_text(value, pad: str = "") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, nested at indent ``pad``.

    That call always runs the pure-Python encoder.  Here a list of plain
    ints and floats goes through the C encoder in one call, with its
    ``", "`` separators turned into line breaks, and every other leaf is
    one ``json.dumps`` call.
    """
    inner = pad + "  "
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            # the stdlib converts and sorts other keys itself
            return json.dumps(value, sort_keys=True,
                              indent=2).replace("\n", "\n" + pad)
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            f"{json.dumps(k)}: {_json_text(value[k], inner)}"
            for k in sorted(value))
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) <= {int, float}:
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
    other file (a device, a FIFO) is only written."""
    with open(path, "w", encoding="utf-8", newline=newline,
              opener=_no_trunc) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _dump_json(payload: dict, out_path: str) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``,
    byte for byte, through the faster ``_json_text``."""
    text = _json_text(payload)
    with _artifact(out_path) as fh:
        fh.write(text + "\n")


def _dump_csv(header, rows, out_path: str, comments=()):
    with _artifact(out_path, newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_payload(command: str, config: dict, body: dict) -> dict:
    return {"version": __version__, "command": command,
            "config": config, "report": body}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_COUPLE_VECTOR = {"couple": dict, "vector": dict}


def _cmd_kprofile(args) -> int:
    cfg = _take(_load_json(args.config),
                {"couple": None, "vector": None,
                 "n_min": DEFAULT_N_MIN, "n_max": DEFAULT_N_MAX},
                required=("couple", "vector"),
                hints=_COUPLE_VECTOR)
    with _parsing():
        couple = Couple.from_json(cfg["couple"])
        x = FiniteVector.from_json(cfg["vector"])
        n_min, n_max = int(cfg["n_min"]), int(cfg["n_max"])
    prof = k_profile(x, couple, n_min, n_max)
    if args.format == "csv":
        rows = [(int(n), float(t), float(v))
                for n, t, v in zip(prof.grid, prof.t_values, prof.values)]
        _dump_csv(("n", "t", "K"), rows, args.out,
                  comments=(f"interpk {__version__} kprofile",))
    else:
        _dump_json(_report_payload("kprofile", cfg, prof.to_json()), args.out)
    return EXIT_OK


def _cmd_interp_norm(args) -> int:
    cfg = _take(_load_json(args.config),
                {"couple": None, "vector": None, "theta": None, "q": None,
                 "n_min": DEFAULT_N_MIN, "n_max": DEFAULT_N_MAX},
                required=("couple", "vector", "theta", "q"),
                hints=_COUPLE_VECTOR)
    with _parsing():
        couple = Couple.from_json(cfg["couple"])
        x = FiniteVector.from_json(cfg["vector"])
        params = InterpParams.from_json({"theta": cfg["theta"], "q": cfg["q"]})
        n_min, n_max = int(cfg["n_min"]), int(cfg["n_max"])
    prof = k_profile(x, couple, n_min, n_max)
    value = interp_norm_from_profile(prof, params)
    body = {"value": value, "truncation": truncation_terms(prof, params)}
    _dump_json(_report_payload("interp-norm", cfg, body), args.out)
    return EXIT_OK


def _cmd_lattice_norm(args) -> int:
    cfg = _take(_load_json(args.config),
                {"couple": None, "vector": None, "r": None,
                 "lattice_weights": None, "n_min": DEFAULT_N_MIN},
                required=("couple", "vector", "r", "lattice_weights"),
                hints=_COUPLE_VECTOR)
    with _parsing():
        couple = Couple.from_json(cfg["couple"])
        x = FiniteVector.from_json(cfg["vector"])
        r = float("inf") if cfg["r"] == "inf" else float(cfg["r"])
        E = LatticeParam(r, int(cfg["n_min"]),
                         np.asarray(cfg["lattice_weights"], dtype=float))
    value = lattice_norm(x, couple, E)
    _dump_json(_report_payload("lattice-norm", cfg, {"value": value}),
               args.out)
    return EXIT_OK


def _cmd_snumbers(args) -> int:
    with _parsing():
        T = MatrixOperator.from_json(_load_json(args.matrix))
    seq = approx_numbers(T)
    rows = zip(range(1, len(seq) + 1), seq.values.tolist())
    _dump_csv(("n", "a_n"), rows, args.out,
              comments=(f"interpk {__version__} snumbers",))
    return EXIT_OK


def _cmd_ideal_norm(args) -> int:
    with _parsing():
        T = MatrixOperator.from_json(_load_json(args.matrix))
        params = LorentzParams(args.p, args.q)
    value = ideal_norm(T, params)
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
    cfg = _take(_load_json(args.config),
                {"epsilon": None, "h": None, "N": None},
                required=("epsilon", "h", "N"))
    with _parsing():
        spec = DecaySpec(np.asarray(cfg["epsilon"], dtype=float),
                         np.asarray(cfg["h"], dtype=int))
        N = int(cfg["N"])
    xi = lift_sequence(spec, N)
    rows = zip(range(1, len(xi) + 1), spec.epsilon[:len(xi)].tolist(),
               xi.tolist())
    _dump_csv(("n", "eps_n", "xi_n"), rows, args.out,
              comments=(f"interpk {__version__} lift",))
    return EXIT_OK


def _cmd_strictness(args) -> int:
    with _parsing():
        n_list = [int(s) for s in args.n_list.split(",") if s]
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
    run keys taken) of a verify check function, from one signature read."""
    params = inspect.signature(check, eval_str=True).parameters
    keys = [p for name, p in params.items() if name not in _RUN_KEYS]
    defaults = {p.name: None if p.default is p.empty else p.default
                for p in keys}
    required = tuple(p.name for p in keys if p.default is p.empty)
    hints = {p.name: p.annotation for p in keys
             if p.annotation is not p.empty}
    return defaults, required, hints, set(_RUN_KEYS) & set(params)


def verify_schema(check: str) -> tuple[dict, tuple]:
    """(config key -> default, required keys) of a verify check; a key
    without a default maps to None."""
    return _check_schema(getattr(verify, VERIFY_CHECKS[check]))[:2]


def _cmd_verify(args) -> int:
    check = getattr(verify, VERIFY_CHECKS[args.check])
    defaults, required, hints, run_keys = _check_schema(check)
    if "seed" in run_keys and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    # each value must fit its parameter's annotation; a None default (such
    # as reiteration's p = r) is left to the check and not echoed
    cfg = _take(_load_json(args.config) if args.config else {},
                defaults, required, hints=hints)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    run = {"seed": args.seed} if "seed" in run_keys else {}
    if args.trace and "keep_trace" in run_keys:
        run["keep_trace"] = True
    report = check(**cfg, **run)
    body = report.to_json()
    if run.get("keep_trace"):
        cols = sorted(report.trace[0]) if report.trace else ["size", "index",
                                                             "ratio", "t"]
        rows = [tuple(row.get(c, "") for c in cols) for row in report.trace]
        _dump_csv(cols, rows, args.trace,
                  comments=(f"interpk {__version__} trace verify {args.check}",))
        body["trace_path"] = args.trace
    payload = _report_payload(f"verify {args.check}",
                              {"seed": args.seed, **cfg}, body)
    _dump_json(payload, args.out)
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
# what argparse writes for the command choices when all are registered
_COMMAND_METAVAR = "{" + ",".join(_COMMANDS) + "}"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: a subparser for every command, or for ``command``
    only.  On arguments that start with ``command`` both parse alike and
    print the same help, usage lines and errors."""
    parser = argparse.ArgumentParser(
        prog="interpk",
        description="K-functionals, interpolation norms and s-number ideals "
                    "on finite windows")
    parser.add_argument("--version", action="version", version=__version__)
    # the metavar is needed only when the choices are not all registered;
    # with it set, a missing or invalid command would be named by it
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else _COMMAND_METAVAR)
    for name in _COMMANDS if command is None else (command,):
        _, help_text, specs = _COMMANDS[name]
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
        # a leading command name fixes the subcommand: build only its parser
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        try:
            args = build_parser(command).parse_args(argv)
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
