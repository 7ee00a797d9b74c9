"""The three benchmark workloads: seeded inputs, operations, output checks.

Every operation calls the library, or ``interpk.cli.main(argv)`` in-process,
so a report costs what a user pays minus interpreter start.  Functions are
looked up on their module at call time, so the traced run's wrappers see
every call.

Workloads, and why each was chosen:

* ``verify``: the ``interpk verify`` checks at their acceptance configs
  plus ``oracle_agreement``.  The seeded descent engine does almost all the
  work, and the exact K kernels are called many thousands of times on tiny
  arrays from inside its objective, so this measures per-call latency.
* ``profiles``: ``kprofile``, ``interp-norm`` and ``lattice-norm`` on seeded
  vectors for every exact strategy at window sizes 8 to 1024.  No descent;
  the weighted sup kernel sets the tail and the memory, and at d = 8 the
  CLI's own parsing and JSON handling dominate.
* ``witnesses``: ``lift`` in a long-orbit (h(n) = n+1, O(N^2)) and a
  short-orbit (h(n) = 2n) shape, the slow K witness, the strictness sweep,
  the separating witness and the s-number commands on a 256 x 256 matrix.
  No descent; ``lethargy`` and ``snum`` do the work, and the weighted sup
  kernel is called one row at a time.

Each operation returns what its check needs; the check raises
``CheckFailed`` when an invariant does not hold and returns the numbers
that are compared with the stored reference at the default seed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from interpk import cli, lethargy, verify

WORKLOADS = ("verify", "profiles", "witnesses")

# The seed whose outputs are stored in reference.json.
DEFAULT_SEED = 0

# Relative tolerance against the reference: the acceptance suite's oracle
# tolerance, so an exact route that replaces descent still passes.
REFERENCE_RTOL = 1e-6

# Tolerance for identities that the library computes exactly up to rounding.
EXACT_RTOL = 1e-9

N_MIN, N_MAX = -20, 20          # the CLI's default profile window
PROFILE_SIZES = (8, 64, 256, 1024)
WEIGHTED_SUP_SIZES = (8, 32, 64, 128)
WEIGHTED_SUP_MAX_DIM = 128
WEIGHTED_SUP_SKIP_REASON = (
    "weighted_sup_lp materializes an (m, d(d-1)/2, d) float64 tensor: "
    "5.6 GB was measured at d = 256 on a 7.7 GB machine, so d >= 256 is "
    "never run")

INTERP_THETA, INTERP_Q = 0.5, 2.0
LATTICE_R, LATTICE_DECAY = 1.0, 0.25


class CheckFailed(Exception):
    """An operation's output broke an invariant or missed the reference."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    kvals: int = 0                  # exact K(x, t) values delivered


@dataclass
class Workload:
    ops: list            # timed, in pass order
    warmups: list        # one small instance of each operation kind
    skipped: dict        # size -> reason, for sizes never run
    baseline: list = field(default_factory=list)   # traced runs only


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """(comment lines, rows including the header) of a CLI CSV artifact."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comments, rows


def _columns(path: str):
    comments, rows = _read_csv(path)
    data = np.asarray([[float(v) for v in row] for row in rows[1:]])
    return comments, data


def cli_op(name: str, argv: list, out: str,
           check: Callable[[str], list], kvals: int = 0) -> Op:
    """An in-process CLI call; any exit code but 0 is a failure."""
    argv = [str(a) for a in argv] + ["--out", out]

    def run():
        return cli.main(argv)

    def checked(code):
        require(code == 0, f"exit code {code}")
        return check(out)

    return Op(name, run, checked, kvals)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# (op name, check, config, acceptance seed); the workload seed is added to
# the acceptance seed.  The cheap checks run at their acceptance configs.
# The descent-bound ones are cut to well under a second each, keeping the
# code path: mainlema keeps dims 2, 4, 8 and budget 4 at one t and count 32,
# konig keeps the full window at lengths 4 and 8, and mixed-exponent
# reiteration runs on the window n in [-1, 1].  Every timed operation then
# repeats many times in a run, which the timing needs (see worker.py).
VERIFY_OPS = [
    ("mainlema", "mainlema", {"t_grid": [0.125], "count": 32}, 404),
    *[(f"konig.q{q:.0f}", "konig",
       {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": q, "lengths": [4, 8]},
       707) for q in (1.0, 2.0)],
    ("reiteration.mixed", "reiteration",
     {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5, "r": 2.0, "p": 1.0,
      "q": 2.0, "dims": [4], "count": 16, "n_min": -1, "n_max": 1}, 606),
    *[(f"sum-intersection.t{theta}.p{p}", "sum-intersection",
       {"theta": theta, "p": p}, 505)
      for theta, p in ((0.3, 1.0), (0.7, 1.0), (0.5, 2.0), (0.3, 0.5))],
    ("reiteration.equal", "reiteration",
     {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5, "r": 2.0}, 606),
    ("dichotomy", "dichotomy",
     {"family": "l1_geometric", "t": 0.25, "sizes": [9, 11, 13, 15, 17]},
     808),
    ("distinctness", "distinctness",
     {"p_list": [4.0 / 3.0], "q_list": [1.0, 2.0], "N": 2 ** 14}, 0),
]

# mainlema at its acceptance config (seed 404, defaults), which the ROADMAP
# baseline quotes; run once, untraced and traced, in traced runs only.
VERIFY_BASELINE = ("mainlema.acceptance", "mainlema", {}, 404)

# Small instances of each check kind, run once in set-up.
VERIFY_WARMUPS = [
    ("mainlema", "mainlema",
     {"dims": [2], "count": 8, "t_grid": [0.5], "budget": 1}, 404),
    ("konig", "konig", {"p0": 1.0, "p1": 2.0, "theta": 0.5, "q": 1.0,
                        "lengths": [4], "count": 4, "n_min": -2,
                        "n_max": 2}, 707),
    ("reiteration.mixed", "reiteration",
     {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5, "r": 2.0, "p": 1.0,
      "q": 2.0, "dims": [4], "count": 2, "n_min": -1, "n_max": 1}, 606),
    ("sum-intersection", "sum-intersection",
     {"theta": 0.3, "p": 1.0, "dims": [4, 8], "count": 8}, 505),
    ("reiteration.equal", "reiteration",
     {"theta0": 0.25, "theta1": 0.75, "alpha": 0.5, "r": 2.0,
      "dims": [4, 8], "count": 8}, 606),
    ("dichotomy", "dichotomy",
     {"family": "l1_geometric", "t": 0.25, "sizes": [9]}, 808),
    ("distinctness", "distinctness",
     {"p_list": [2.0], "q_list": [1.0], "N": 2 ** 10}, 0),
]

# count, max_dim, acceptance seed, budget; max_dim is 8 in the acceptance
# suite, cut to 4 for the reason given above VERIFY_OPS
ORACLE_ARGS = (200, 4, 101, 4)
ORACLE_TOL = 1e-6                   # acceptance criterion 01


def _verify_numbers(path: str) -> list:
    body = _read_json(path)["report"]
    require(body.get("pass") is True, f"verify report pass={body.get('pass')}")
    if "values" in body:                       # dichotomy
        return [float(v) for v in body["values"]]
    if "pairs" in body:                        # distinctness
        return [float(v[side]) for pair in body["pairs"]
                for _, v in sorted(pair["ideal_norms"].items())
                for side in ("fine", "coarse")]
    out = [float(body["min_ratio"]), float(body["max_ratio"])]
    for _, band in sorted(body["per_dimension"].items(), key=lambda kv: int(kv[0])):
        out += [float(band["min"]), float(band["max"])]
    return out


def _verify_op(work: str, name: str, check: str, config: dict,
               seed: int) -> Op:
    cfg = _write_json(os.path.join(work, f"verify-{name}.json"), config)
    return cli_op(f"verify/{name}",
                  ["verify", check, "--config", cfg, "--seed", seed],
                  os.path.join(work, f"verify-{name}.out.json"),
                  _verify_numbers)


def _oracle_op(name: str, count: int, max_dim: int, seed: int,
               budget: int) -> Op:
    def run():
        return verify.oracle_agreement(count, max_dim, seed, budget)

    def check(rep):
        for kind, err in rep["worst_relative_error"].items():
            require(err <= ORACLE_TOL, f"oracle {kind} relative error {err}")
        return []   # the errors measure a tolerance; nothing to pin

    return Op(name, run, check)


def build_verify(seed: int, work: str) -> Workload:
    ops = [_verify_op(work, name, check, cfg, base + seed)
           for name, check, cfg, base in VERIFY_OPS]
    count, max_dim, base, budget = ORACLE_ARGS
    ops.append(_oracle_op("verify/oracle_agreement", count, max_dim,
                          base + seed, budget))
    warmups = [_verify_op(work, f"warmup.{name}", check, cfg, base)
               for name, check, cfg, base in VERIFY_WARMUPS]
    warmups.append(_oracle_op("verify/warmup.oracle_agreement", 8, 4, base,
                              budget))
    name, check, cfg, base = VERIFY_BASELINE
    return Workload(ops, warmups, {},
                    [_verify_op(work, name, check, cfg, base)])


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _lp_norm(x: np.ndarray, p, w: np.ndarray) -> float:
    terms = w * np.abs(x)
    if p == "inf":
        return float(np.max(terms))
    return float(np.sum(terms ** p) ** (1.0 / p))


# tag -> (strategy, p0, p1, weight spread); weights are 2^U(-spread, spread)
# per coordinate, or all 1 when the spread is None
PROFILE_STRATEGIES = {
    "exact_l1_linf": ("exact_l1_linf", 1, "inf", None),
    "exact_l1_linf.reversed": ("exact_l1_linf", "inf", 1, None),
    "power.p0.5": ("power_coordinatewise", 0.5, 0.5, 1.0),
    "power.p1": ("power_coordinatewise", 1.0, 1.0, 1.0),
    "power.p2": ("power_coordinatewise", 2.0, 2.0, 1.0),
    "weighted_sup_lp": ("weighted_sup_lp", "inf", "inf", 2.0),
}


def _profile_case(tag: str, d: int, rng) -> dict:
    strategy, p0, p1, spread = PROFILE_STRATEGIES[tag]

    def weights() -> list:
        if spread is None:
            return [1.0] * d
        return (2.0 ** rng.uniform(-spread, spread, d)).tolist()

    couple = {"norm0": {"p": p0, "weights": weights()},
              "norm1": {"p": p1, "weights": weights()},
              "strategy": strategy}
    x = rng.standard_normal(d) * 2.0 ** rng.uniform(-3, 3)
    return {"couple": couple, "vector": {"offset": 0, "entries": x.tolist()}}


def _profile_ops(work: str, tag: str, case: dict) -> list:
    """kprofile, interp-norm and lattice-norm of one seeded vector."""
    grid = np.arange(N_MIN, N_MAX + 1)
    t = 2.0 ** grid.astype(float)
    x = np.asarray(case["vector"]["entries"])
    n0, n1 = case["couple"]["norm0"], case["couple"]["norm1"]
    norm0 = _lp_norm(x, n0["p"], np.asarray(n0["weights"]))
    norm1 = _lp_norm(x, n1["p"], np.asarray(n1["weights"]))
    prof_out = os.path.join(work, f"kprofile-{tag}.out.json")
    lattice_w = 2.0 ** (-LATTICE_DECAY * grid.astype(float))

    def profile_values() -> np.ndarray:
        return np.asarray(_read_json(prof_out)["report"]["values"])

    def check_profile(out: str) -> list:
        K = profile_values()
        require(len(K) == len(grid), "profile length")
        slack = EXACT_RTOL * max(float(np.max(K)), 1e-300)
        require(bool(np.all(K >= -slack)), "K must be nonnegative")
        require(bool(np.all(np.diff(K) >= -slack)), "K must be monotone in t")
        ratio = K / t
        rslack = EXACT_RTOL * max(float(np.max(ratio)), 1e-300)
        require(bool(np.all(np.diff(ratio) <= rslack)), "K/t must be antitone")
        bound = np.minimum(norm0, t * norm1)
        require(bool(np.all(K <= bound * (1 + EXACT_RTOL))),
                "K must not exceed min(|x|_A0, t |x|_A1)")
        return K.tolist()

    def check_interp(out: str) -> list:
        body = _read_json(out)["report"]
        terms = 2.0 ** (-INTERP_THETA * grid) * profile_values()
        want = float(np.sum(terms ** INTERP_Q) ** (1.0 / INTERP_Q))
        require(close(body["value"], want, EXACT_RTOL),
                f"interp-norm {body['value']} != {want} from the profile")
        trunc = body["truncation"]
        require(close(trunc["first_term"], terms[0], EXACT_RTOL)
                and close(trunc["last_term"], terms[-1], EXACT_RTOL),
                "truncation terms disagree with the profile")
        return [body["value"], trunc["first_term"], trunc["last_term"]]

    def check_lattice(out: str) -> list:
        value = _read_json(out)["report"]["value"]
        want = float(np.sum(lattice_w * profile_values()))    # r = 1
        require(close(value, want, EXACT_RTOL),
                f"lattice-norm {value} != {want} from the profile")
        return [value]

    base = {"couple": case["couple"], "vector": case["vector"]}
    cfg_prof = _write_json(os.path.join(work, f"kprofile-{tag}.json"), base)
    cfg_interp = _write_json(os.path.join(work, f"interp-{tag}.json"),
                             {**base, "theta": INTERP_THETA, "q": INTERP_Q})
    cfg_lattice = _write_json(
        os.path.join(work, f"lattice-{tag}.json"),
        {**base, "r": LATTICE_R, "n_min": N_MIN,
         "lattice_weights": lattice_w.tolist()})
    n = len(grid)
    return [
        cli_op(f"kprofile/{tag}", ["kprofile", "--config", cfg_prof],
               prof_out, check_profile, n),
        cli_op(f"interp-norm/{tag}", ["interp-norm", "--config", cfg_interp],
               os.path.join(work, f"interp-{tag}.out.json"), check_interp, n),
        cli_op(f"lattice-norm/{tag}",
               ["lattice-norm", "--config", cfg_lattice],
               os.path.join(work, f"lattice-{tag}.out.json"), check_lattice,
               n),
    ]


def build_profiles(seed: int, work: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    warm = np.random.default_rng([DEFAULT_SEED, 2])
    ops, warmups = [], []
    for tag, (strategy, *_) in PROFILE_STRATEGIES.items():
        wsup = strategy == "weighted_sup_lp"
        for d in WEIGHTED_SUP_SIZES if wsup else PROFILE_SIZES:
            if wsup and d > WEIGHTED_SUP_MAX_DIM:
                raise ValueError(f"refusing weighted_sup_lp at d = {d}")
            ops += _profile_ops(work, f"{tag}.d{d}", _profile_case(tag, d, rng))
        warmups += _profile_ops(work, f"warmup.{tag}",
                                _profile_case(tag, 4, warm))
    skipped = {f"weighted_sup_lp.d{d}": WEIGHTED_SUP_SKIP_REASON
               for d in PROFILE_SIZES if d > WEIGHTED_SUP_MAX_DIM}
    return Workload(ops, warmups, skipped)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def _decay(rng, n: int) -> np.ndarray:
    """A seeded positive nonincreasing sequence of length n."""
    return np.sort(2.0 ** rng.uniform(-12.0, 0.0, n))[::-1].copy()


def _lift_op(work: str, name: str, eps: np.ndarray, h: np.ndarray) -> Op:
    N = len(eps)
    cfg = _write_json(os.path.join(work, f"lift-{name}.json"),
                      {"epsilon": eps.tolist(), "h": h.tolist(), "N": N})

    def check(out: str) -> list:
        _, data = _columns(out)
        require(data.shape == (N, 3), "lift output shape")
        xi = data[:, 2]
        require(bool(np.all(data[:, 1] == eps)), "eps column altered")
        require(bool(np.all(eps <= xi)), "eps <= xi violated")
        require(bool(np.all(np.diff(xi) <= 0.0)), "xi must be nonincreasing")
        reach = h <= N
        require(bool(np.all(xi[reach] <= 2.0 * xi[h[reach] - 1])),
                "xi_n <= 2 xi_h(n) violated")
        return xi.tolist()

    return cli_op(f"lift/{name}", ["lift", "--config", cfg],
                  os.path.join(work, f"lift-{name}.out.csv"), check)


def _slow_k_op(name: str, eps: np.ndarray) -> Op:
    N = len(eps) - 1

    def run():
        return lethargy.slow_k_witness(eps, N)

    def check(result) -> list:
        _, profile = result
        require(profile.n_min == -N and profile.n_max == 0, "profile window")
        # values[j] holds K(x, 2^(j - N)); the certificate is K(x, 2^-n) >= eps_n
        at = profile.values[::-1]
        require(bool(np.all(at >= eps * (1.0 - 1e-12))),
                "K(x, 2^-n) >= eps_n violated")
        return profile.values.tolist()

    return Op(name, run, check, kvals=N + 1)


def _strictness_op(work: str, name: str, theta: float, n_list: list) -> Op:
    def check(out: str) -> list:
        _, data = _columns(out)
        N, int_norm, sum_norm, interp = data.T
        require(list(N) == n_list, "strictness N column")
        require(all(close(v, 1.0, EXACT_RTOL) for v in int_norm),
                "intersection norm must be 1")
        require(all(close(s, 1.0 / n, EXACT_RTOL)
                    for s, n in zip(sum_norm, N)), "sum norm must be 1/N")
        bound = 2.0 ** (-min(theta, 1.0 - theta)) + 0.05   # criterion 10
        require(bool(np.all(interp[1:] / interp[:-1] <= bound)),
                "interpolation norm decays too slowly")
        return data[:, 1:].ravel().tolist()

    return cli_op(f"strictness/{name}",
                  ["strictness", "--theta", theta, "--q", 1.0,
                   "--n-list", ",".join(str(n) for n in n_list)],
                  os.path.join(work, f"strictness-{name}.out.csv"), check)


def _witness_op(work: str, name: str, p: float, q: float, q_star: float,
                n: int, flag: str) -> Op:
    def check(out: str) -> list:
        comments, data = _columns(out)
        require(f"flag={flag}" in comments[-1],
                f"witness flag: {comments[-1]!r}, expected {flag}")
        require(bool(np.all(np.diff(data[:, 1]) <= 0.0)),
                "witness sequence must be nonincreasing")
        require(bool(np.all(np.diff(data[:, 3]) >= 0.0)),
                "partial sums must be nondecreasing")
        return data[:, 1:].ravel().tolist()

    return cli_op(f"witness/{name}",
                  ["witness", "--p", p, "--q", q, "--q-star", q_star,
                   "--n", n],
                  os.path.join(work, f"witness-{name}.out.csv"), check)


def _matrix_ops(work: str, name: str, A: np.ndarray, p: float,
                q: float) -> list:
    path = _write_json(os.path.join(work, f"matrix-{name}.json"),
                       {"rows": A.shape[0], "cols": A.shape[1],
                        "entries": A.tolist()})
    sv = np.linalg.svd(A, compute_uv=False)
    op_norm = float(np.linalg.norm(A, 2))
    n = np.arange(1, len(sv) + 1, dtype=float)
    lorentz = float(np.sum((n ** (1.0 / p - 1.0 / q) * sv) ** q) ** (1.0 / q))

    def check_snumbers(out: str) -> list:
        _, data = _columns(out)
        s = data[:, 1]
        require(len(s) == len(sv), "s-number count")
        require(bool(np.all(s >= 0.0)), "s-numbers must be nonnegative")
        require(bool(np.all(np.diff(s) <= 0.0)),
                "s-numbers must be nonincreasing")
        require(close(s[0], op_norm, EXACT_RTOL),
                f"s_1 = {s[0]} is not the operator norm {op_norm}")
        return s.tolist()

    def check_ideal(out: str) -> list:
        value = _read_json(out)["report"]["value"]
        require(close(value, lorentz, EXACT_RTOL),
                f"ideal norm {value} != Lorentz norm {lorentz}")
        return [value]

    return [
        cli_op(f"snumbers/{name}", ["snumbers", "--matrix", path],
               os.path.join(work, f"snumbers-{name}.out.csv"),
               check_snumbers),
        cli_op(f"ideal-norm/{name}",
               ["ideal-norm", "--matrix", path, "--p", p, "--q", q],
               os.path.join(work, f"ideal-{name}.out.json"), check_ideal),
    ]


def _witness_ops(work: str, rng, tag: str, sizes: dict) -> list:
    n_long, n_short = sizes["lift_long"], sizes["lift_short"]
    long_idx = np.arange(1, n_long + 1)
    short_idx = np.arange(1, n_short + 1)
    p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
    q = float(rng.choice([1.0, 2.0]))
    theta = float(rng.choice([0.3, 0.5, 0.7]))
    dim = sizes["matrix"]
    A = rng.standard_normal((dim, dim)) * 2.0 ** rng.uniform(-2, 2, dim)
    return [
        _lift_op(work, f"{tag}long", _decay(rng, n_long), long_idx + 1),
        _lift_op(work, f"{tag}short", _decay(rng, n_short), 2 * short_idx),
        _slow_k_op(f"slow_k/{tag}N{sizes['slow_k']}",
                   _decay(rng, sizes["slow_k"] + 1)),
        _strictness_op(work, f"{tag}sweep", theta, sizes["strictness"]),
        _witness_op(work, f"{tag}diverging", p, q, q, sizes["witness"],
                    "diverging"),
        _witness_op(work, f"{tag}converging", p, q, 2.0 * q,
                    sizes["witness"], "converging"),
        *_matrix_ops(work, f"{tag}d{dim}", A, p, q),
    ]


# The long-orbit lift is O(N^2): N = 500 keeps it under a second so it
# repeats within a run; the ROADMAP's N = 1000 runs in traced runs only.
LIFT_BASELINE_N = 1000
WITNESS_SIZES = {"lift_long": 500, "lift_short": 2000, "slow_k": 64,
                 "strictness": [2 ** k for k in range(1, 11)],
                 "witness": 2 ** 16, "matrix": 256}
WITNESS_WARMUP_SIZES = {"lift_long": 50, "lift_short": 50, "slow_k": 8,
                        "strictness": [2, 4], "witness": 2 ** 16,
                        "matrix": 8}


def build_witnesses(seed: int, work: str) -> Workload:
    ops = _witness_ops(work, np.random.default_rng([seed, 3]), "",
                       WITNESS_SIZES)
    warmups = _witness_ops(work, np.random.default_rng([DEFAULT_SEED, 4]),
                           "warmup.", WITNESS_WARMUP_SIZES)
    eps = _decay(np.random.default_rng([seed, 5]), LIFT_BASELINE_N)
    baseline = [_lift_op(work, f"long.N{LIFT_BASELINE_N}", eps,
                         np.arange(2, LIFT_BASELINE_N + 2))]
    return Workload(ops, warmups, {}, baseline)


BUILDERS = {"verify": build_verify, "profiles": build_profiles,
            "witnesses": build_witnesses}


def build(name: str, seed: int, work: str) -> Workload:
    return BUILDERS[name](seed, work)
