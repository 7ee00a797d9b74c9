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

Exit codes: 0 success, 2 config error, 3 a verify band failed.  Reports are
deterministic: identical (argv, config, seed) produce byte-identical files.
Every successful run writes exactly one artifact.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .couples import Couple, FiniteVector, k_profile
from .errors import InterpKError
from .interp import (DEFAULT_N_MAX, DEFAULT_N_MIN, InterpParams, LatticeParam,
                     interp_norm_from_profile, lattice_norm,
                     truncation_terms)
from .lethargy import DecaySpec, lift_sequence, strictness_sweep
from .snum import (LorentzParams, MatrixOperator, approx_numbers, ideal_norm,
                   witness_sequence, witness_trace)
from .verify import (check_konig, check_mainlema, check_reiteration,
                     check_sum_intersection, dichotomy_sweep,
                     distinctness_demo)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED_BAND = 3


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")


def _take(config: dict, allowed: dict, required: tuple = ()):
    """Validate keys against ``allowed`` (name -> default); reject unknowns."""
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    missing = [k for k in required if k not in config]
    if missing:
        raise ConfigError(f"missing config key: {missing[0]}")
    out = dict(allowed)
    out.update(config)
    return out


def _dump_json(payload: dict, out_path: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _dump_csv(header, rows, out_path: str, comments=()):
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_payload(command: str, config: dict, body: dict) -> dict:
    return {"version": __version__, "command": command,
            "config": config, "report": body}


def _parse_couple(config: dict) -> Couple:
    return Couple.from_json(config)


def _parse_vector(config) -> FiniteVector:
    return FiniteVector.from_json(config)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_kprofile(args) -> int:
    cfg = _take(_load_json(args.config),
                {"couple": None, "vector": None,
                 "n_min": DEFAULT_N_MIN, "n_max": DEFAULT_N_MAX},
                required=("couple", "vector"))
    couple = _parse_couple(cfg["couple"])
    x = _parse_vector(cfg["vector"])
    prof = k_profile(x, couple, int(cfg["n_min"]), int(cfg["n_max"]))
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
                required=("couple", "vector", "theta", "q"))
    couple = _parse_couple(cfg["couple"])
    x = _parse_vector(cfg["vector"])
    params = InterpParams.from_json({"theta": cfg["theta"], "q": cfg["q"]})
    prof = k_profile(x, couple, int(cfg["n_min"]), int(cfg["n_max"]))
    value = interp_norm_from_profile(prof, params)
    body = {"value": value, "truncation": truncation_terms(prof, params)}
    _dump_json(_report_payload("interp-norm", cfg, body), args.out)
    return EXIT_OK


def _cmd_lattice_norm(args) -> int:
    cfg = _take(_load_json(args.config),
                {"couple": None, "vector": None, "r": None,
                 "lattice_weights": None, "n_min": DEFAULT_N_MIN},
                required=("couple", "vector", "r", "lattice_weights"))
    couple = _parse_couple(cfg["couple"])
    x = _parse_vector(cfg["vector"])
    r = float("inf") if cfg["r"] == "inf" else float(cfg["r"])
    E = LatticeParam(r, int(cfg["n_min"]),
                     np.asarray(cfg["lattice_weights"], dtype=float))
    value = lattice_norm(x, couple, E)
    _dump_json(_report_payload("lattice-norm", cfg, {"value": value}),
               args.out)
    return EXIT_OK


def _cmd_snumbers(args) -> int:
    data = _load_json(args.matrix)
    T = MatrixOperator.from_json(data)
    seq = approx_numbers(T)
    rows = [(i + 1, float(v)) for i, v in enumerate(seq.values)]
    _dump_csv(("n", "a_n"), rows, args.out,
              comments=(f"interpk {__version__} snumbers",))
    return EXIT_OK


def _cmd_ideal_norm(args) -> int:
    T = MatrixOperator.from_json(_load_json(args.matrix))
    params = LorentzParams(args.p, args.q)
    value = ideal_norm(T, params)
    cfg = {"matrix": args.matrix, "p": args.p, "q": args.q}
    _dump_json(_report_payload("ideal-norm", cfg, {"value": value}), args.out)
    return EXIT_OK


def _cmd_witness(args) -> int:
    p_star = args.p if args.p_star is None else args.p_star
    q_star = args.q if args.q_star is None else args.q_star
    _, report = witness_sequence(args.p, args.q, args.n,
                                 probe_params=[(p_star, q_star)])
    n, eps, summand, partial = witness_trace(args.p, args.q, args.n,
                                             p_star, q_star)
    probe = report.probes[0]
    stride = max(1, args.n // args.max_rows)
    idx = np.unique(np.concatenate([np.arange(0, args.n, stride),
                                    [args.n - 1]]))
    rows = [(int(n[i]), float(eps[i]), float(summand[i]), float(partial[i]))
            for i in idx]
    _dump_csv(("n", "s_n", "summand", "partial_sum"), rows, args.out,
              comments=(f"interpk {__version__} witness p={args.p} q={args.q}",
                        f"probe p={p_star} q={q_star} flag={probe.flag}"))
    return EXIT_OK


def _cmd_lift(args) -> int:
    cfg = _take(_load_json(args.config),
                {"epsilon": None, "h": None, "N": None},
                required=("epsilon", "h", "N"))
    spec = DecaySpec(np.asarray(cfg["epsilon"], dtype=float),
                     np.asarray(cfg["h"], dtype=int))
    xi = lift_sequence(spec, int(cfg["N"]))
    rows = [(i + 1, float(spec.epsilon[i]), float(xi[i]))
            for i in range(len(xi))]
    _dump_csv(("n", "eps_n", "xi_n"), rows, args.out,
              comments=(f"interpk {__version__} lift",))
    return EXIT_OK


def _cmd_strictness(args) -> int:
    n_list = [int(s) for s in args.n_list.split(",") if s]
    if not n_list:
        raise ConfigError("empty --n-list")
    params = InterpParams(args.theta, args.q)
    reports = strictness_sweep(n_list, params)
    rows = [(r.N, r.int_norm, r.sum_norm, r.interp_norm) for r in reports]
    _dump_csv(("N", "int_norm", "sum_norm", "interp_norm"), rows, args.out,
              comments=(f"interpk {__version__} strictness "
                        f"theta={args.theta} q={args.q}",))
    return EXIT_OK


_VERIFY_KEYS = {
    "mainlema": {"family": "l1_linf", "dims": None, "t_grid": None,
                 "count": None, "band": None, "budget": None},
    "sum-intersection": {"theta": None, "p": None, "dims": None,
                         "count": None, "family": "l1_linf",
                         "n_min": DEFAULT_N_MIN, "n_max": DEFAULT_N_MAX,
                         "spread_growth": None},
    "reiteration": {"theta0": None, "theta1": None, "alpha": None, "r": None,
                    "p": None, "q": None, "dims": None, "count": None,
                    "family": "l1_linf", "n_min": DEFAULT_N_MIN,
                    "n_max": DEFAULT_N_MAX, "spread_growth": None},
    "konig": {"p0": None, "p1": None, "theta": None, "q": None,
              "lengths": None, "count": None, "n_min": DEFAULT_N_MIN,
              "n_max": DEFAULT_N_MAX, "spread_growth": None,
              "witness_length": None},
    "dichotomy": {"family": None, "t": None, "sizes": None, "samples": None,
                  "lower": None, "upper_slack": None},
    "distinctness": {"p_list": None, "q_list": None, "N": None,
                     "norm_lengths": (16, 64)},
}


def _cmd_verify(args) -> int:
    check = args.check
    if check not in _VERIFY_KEYS:
        raise ConfigError(f"unknown verify check: {check}")
    cfg = _take(_load_json(args.config) if args.config else {},
                _VERIFY_KEYS[check])
    cfg = {k: v for k, v in cfg.items() if v is not None}
    seed = args.seed
    traced = {}
    if args.trace and check in ("mainlema", "sum-intersection",
                                "reiteration", "konig"):
        traced = {"keep_trace": True}
    if check == "mainlema":
        report = check_mainlema(seed=seed, **cfg, **traced)
    elif check == "sum-intersection":
        for key in ("theta", "p"):
            if key not in cfg:
                raise ConfigError(f"missing config key: {key}")
        report = check_sum_intersection(seed=seed, **cfg, **traced)
    elif check == "reiteration":
        for key in ("theta0", "theta1", "alpha", "r"):
            if key not in cfg:
                raise ConfigError(f"missing config key: {key}")
        report = check_reiteration(seed=seed, **cfg, **traced)
    elif check == "konig":
        for key in ("p0", "p1", "theta", "q"):
            if key not in cfg:
                raise ConfigError(f"missing config key: {key}")
        report = check_konig(seed=seed, **cfg, **traced)
    elif check == "dichotomy":
        for key in ("family", "t", "sizes"):
            if key not in cfg:
                raise ConfigError(f"missing config key: {key}")
        report = dichotomy_sweep(seed=seed, **cfg)
    else:
        for key in ("p_list", "q_list", "N"):
            if key not in cfg:
                raise ConfigError(f"missing config key: {key}")
        report = distinctness_demo(**cfg)
    body = report.to_json()
    if args.trace and getattr(report, "trace", None) is not None:
        cols = sorted(report.trace[0]) if report.trace else ["size", "index",
                                                             "ratio", "t"]
        rows = [tuple(row.get(c, "") for c in cols) for row in report.trace]
        _dump_csv(cols, rows, args.trace,
                  comments=(f"interpk {__version__} trace verify {check}",))
        body["trace_path"] = args.trace
    payload = _report_payload(f"verify {check}",
                              {"seed": seed, **cfg}, body)
    _dump_json(payload, args.out)
    return EXIT_OK if report.passed else EXIT_FAILED_BAND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interpk",
        description="K-functionals, interpolation norms and s-number ideals "
                    "on finite windows")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--out", required=True, help="output artifact path")
        if config:
            p.add_argument("--config", required=True, help="JSON config file")

    p = sub.add_parser("kprofile", help="dyadic K-profile of a vector")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("interp-norm", help="(theta, q) interpolation norm")
    common(p)

    p = sub.add_parser("lattice-norm", help="lattice-parameter E:K norm")
    common(p)

    p = sub.add_parser("snumbers", help="approximation numbers of a matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ideal-norm", help="Lorentz ideal norm of a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("witness", help="separating witness sequence")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-star", type=float, default=None)
    p.add_argument("--q-star", type=float, default=None)
    p.add_argument("--max-rows", type=int, default=256)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lift", help="sequence lifting construction")
    common(p)

    p = sub.add_parser("strictness", help="flat-vector strictness witness sweep")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n-list", required=True, help="comma-separated N values")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="named verification experiment")
    p.add_argument("check", choices=sorted(_VERIFY_KEYS))
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None,
                   help="also write the per-sample ratio trace CSV here")

    return parser


_HANDLERS = {
    "kprofile": _cmd_kprofile,
    "interp-norm": _cmd_interp_norm,
    "lattice-norm": _cmd_lattice_norm,
    "snumbers": _cmd_snumbers,
    "ideal-norm": _cmd_ideal_norm,
    "witness": _cmd_witness,
    "lift": _cmd_lift,
    "strictness": _cmd_strictness,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; re-raise clean exits
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_CONFIG
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InterpKError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
