"""The CLI's report writer and parser against the stdlib and a frozen parser.

``_dump_json`` must write what ``json.dumps(payload, sort_keys=True,
indent=2) + "\\n"`` writes, byte for byte.  ``main`` answers a plain argument
list from the command table without building a parser, and must return what
argparse returns for it; any other list builds only the invoked
subcommand's parser, and everything argparse prints must read as it did
when every subparser was built on every call, which ``_reference_parser``
(the earlier ``build_parser``, kept verbatim) pins.
"""

import argparse
import itertools
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpk import __version__, cli, verify
from interpk.cli import VERIFY_CHECKS, main


# ---------------------------------------------------------------------------
# report writer
# ---------------------------------------------------------------------------

EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300,
               -1e300, 1e16, 1e-7, 0.1)
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
numbers = st.integers() | floats
leaves = (numbers | floats.map(np.float64) | st.booleans() | st.none()
          | st.text() | st.sampled_from(("", "é", "K(x, t) ≤ ∞", " ",
                                         "\ud800", "tab\tquote\"")))


def _containers(children):
    return (st.lists(children, max_size=6)
            | st.lists(children, max_size=6).map(tuple)
            | st.lists(numbers, max_size=8)
            | st.lists(numbers, max_size=8).map(tuple)
            | st.dictionaries(st.text(max_size=6), children, max_size=6))


payloads = st.dictionaries(st.text(max_size=8),
                           st.recursive(leaves, _containers, max_leaves=40),
                           max_size=8)


def _stdlib_bytes(payload) -> bytes:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(payload=payloads)
def test_writer_matches_stdlib_bytes(payload, tmp_path_factory):
    out = tmp_path_factory.getbasetemp() / "writer.json"
    cli._dump_json(payload, str(out))
    assert out.read_bytes() == _stdlib_bytes(payload)


@pytest.mark.parametrize("payload", [
    {},
    {"a": [], "b": {}, "c": (), "d": [[]], "e": [{}]},
    {"nums": [1, 2.5, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]},
    {"np": [np.float64(0.1), 1.0], "scalar": np.float64(-0.0)},
    {"flags": [True, False, 1, 0.0], "none": [None, 1]},
    {"mixed": [1, "x", [2, 3], {"z": 1, "a": [0.5]}], "é": "ü"},
    {"nested": {"b": {"d": [1, 2], "c": [[1.5], [2, {"k": ()}]]}}},
    {"int_keys": {2: "b", 1: [1, 2]}, "after": [3]},
])
def test_writer_matches_stdlib_on_fixed_payloads(payload, tmp_path):
    out = tmp_path / "w.json"
    cli._dump_json(payload, str(out))
    assert out.read_bytes() == _stdlib_bytes(payload)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _reference_parser(command=None) -> argparse.ArgumentParser:
    """``build_parser`` as it was when every call built every subparser;
    ``command``, which ``main`` passes, is ignored."""
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
    p.add_argument("check", choices=sorted(VERIFY_CHECKS))
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None,
                   help="also write the per-sample ratio trace CSV here")

    return parser


# per command: a complete argument list, flags and values in pairs
VALID_ARGS = {
    "kprofile": ["--config", "c.json", "--out", "o.json", "--format", "csv"],
    "interp-norm": ["--config", "c.json", "--out", "o.json"],
    "lattice-norm": ["--config", "c.json", "--out", "o.json"],
    "snumbers": ["--matrix", "m.json", "--out", "o.csv"],
    "ideal-norm": ["--matrix", "m.json", "--p", "2", "--q", "1",
                   "--out", "o.json"],
    "witness": ["--p", "2", "--q", "1", "--n", "64", "--out", "o.csv"],
    "lift": ["--config", "c.json", "--out", "o.csv"],
    "strictness": ["--theta", "0.5", "--q", "1", "--n-list", "2,4",
                   "--out", "o.csv"],
    "verify": ["konig", "--seed", "0", "--out", "o.json"],
}


def _failing_argvs(command: str) -> list:
    """Argument lists that make argparse exit before any handler runs."""
    valid = VALID_ARGS[command]
    argvs = [[command], [command, "--help"], [command, "-h"],
             [command, "--version"], [command, *valid, "--bogus"],
             [command, *valid, "stray"], [command, "--bogus", *valid]]
    for i, arg in enumerate(valid):
        if arg.startswith("--") and i + 1 < len(valid):
            if arg != "--format":       # the one optional flag listed
                argvs.append([command, *valid[:i], *valid[i + 2:]])
            argvs.append([command, *valid[:i + 1]])   # flag without value
    if command == "verify":
        argvs += [[command, "nosuch", *valid[1:]], [command, *valid[1:]]]
    if command == "witness":
        argvs.append([command, *valid[:-2], "--n", "x", "--out", "o.csv"])
    if command == "kprofile":
        argvs.append([command, *valid[:4], "--format", "xml"])
    return argvs


TOP_LEVEL = [[], ["--help"], ["-h"], ["--version"], ["bogus"], ["--bogus"],
             ["KPROFILE"], ["kprof"], ["--version", "kprofile"],
             ["--", "kprofile"]]


def _outcome(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _no_handler(args):
    raise AssertionError(f"handler ran for {args}")


@pytest.mark.parametrize(
    "argv", TOP_LEVEL + [a for c in VALID_ARGS for a in _failing_argvs(c)],
    ids=lambda argv: " ".join(argv) or "<none>")
def test_parser_output_matches_reference(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name, (_, help_text, specs) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name,
                            (_no_handler, help_text, specs))
    new = _outcome(argv, capsys)
    monkeypatch.setattr(cli, "build_parser", _reference_parser)
    assert new == _outcome(argv, capsys)
    assert new[0] in (cli.EXIT_OK, cli.EXIT_CONFIG)


def test_every_command_is_in_the_reference():
    # the frozen parser covers the whole table, so no command goes unchecked
    assert set(VALID_ARGS) == set(cli._COMMANDS)
    choices = _reference_parser()._subparsers._group_actions[0].choices
    assert list(choices) == list(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_single_parser_parses_like_the_full_one(command):
    argv = [command, *VALID_ARGS[command]]
    assert (vars(cli.build_parser(command).parse_args(argv))
            == vars(cli.build_parser().parse_args(argv))
            == vars(_reference_parser().parse_args(argv)))


def _fields(args) -> str:
    # repr keeps the value types apart and makes nan equal to nan
    return repr(sorted(vars(args).items()))


def _pairs(command: str) -> tuple[list, list]:
    """(positional head, option-value pairs) of ``VALID_ARGS[command]``."""
    valid = VALID_ARGS[command]
    head = valid[:1] if command == "verify" else []
    return head, [valid[i:i + 2] for i in range(len(head), len(valid), 2)]


OPTIONS = sorted({name for _, _, specs in cli._COMMANDS.values()
                  for name, _ in specs if name.startswith("-")})
TOKENS = (list(cli._COMMANDS) + OPTIONS + sorted(VERIFY_CHECKS)
          + ["--conf", "--form", "--n-l", "--max", "--p-s", "--out=o.json",
             "-h", "--help", "--version", "--", "c.json", "", "2", "-1",
             "nan", "1e3", "0x10", "xml"])


@st.composite
def argvs(draw):
    """A command and its valid arguments in a drawn order, then up to two
    edits anywhere: tokens of ``TOKENS`` inserted or swapped in, a token
    deleted, or two tokens repeated."""
    command = draw(st.sampled_from(sorted(VALID_ARGS)))
    head, pairs = _pairs(command)
    tokens = [command, *head, *itertools.chain(*draw(st.permutations(pairs)))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        new = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=2))
        edit = draw(st.sampled_from(("insert", "replace", "delete",
                                     "repeat")))
        if edit == "insert":
            tokens[i:i] = new
        elif edit == "replace":
            tokens[i:i + 1] = new[:1]
        elif edit == "delete":
            del tokens[i:i + 1]
        else:
            tokens[i:i] = tokens[i:i + 2]
    return tokens


@settings(max_examples=1000, deadline=None)
@given(argv=argvs())
def test_plain_path_parses_like_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        want = cli.build_parser(argv[0]).parse_args(argv)
        assert _fields(plain) == _fields(want)


def _no_parser(command=None):
    raise AssertionError(f"parser built for {command}")


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_valid_args_take_the_plain_path(command, monkeypatch):
    # every option order of a complete argument list builds no parser
    head, pairs = _pairs(command)
    calls = [[command, *head, *itertools.chain(*order)]
             for order in itertools.permutations(pairs)]
    want = [_fields(cli.build_parser(command).parse_args(a)) for a in calls]
    seen = []
    _, help_text, specs = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command,
                        (lambda args: seen.append(_fields(args)) or 0,
                         help_text, specs))
    monkeypatch.setattr(cli, "build_parser", _no_parser)
    assert [main(argv) for argv in calls] == [0] * len(calls)
    assert seen == want


def test_main_builds_only_the_invoked_parser(monkeypatch, tmp_path):
    # a plain call builds no parser; any other call that starts with a
    # command name builds that command's parser only
    built = []
    real = cli.build_parser

    def spy(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    out = tmp_path / "st.csv"
    argv = ["strictness", "--theta", "0.5", "--q", "1", "--n-list", "2",
            "--out", str(out)]
    assert main(argv) == 0
    assert built == []
    plain = out.read_bytes()
    out.unlink()
    assert main([*argv[:5], "--n-list=2", *argv[7:]]) == 0
    assert out.read_bytes() == plain
    assert main(["--version"]) == 0
    assert built == ["strictness", None]


def test_main_without_argv_reads_sys_argv(monkeypatch, tmp_path, capsys):
    # the console script calls main() with no arguments
    out = tmp_path / "st.csv"
    monkeypatch.setattr("sys.argv", ["interpk", "strictness", "--theta",
                                     "0.5", "--q", "1", "--n-list", "1,2",
                                     "--out", str(out)])
    assert main() == 0
    assert out.read_text().splitlines()[1] == "N,int_norm,sum_norm,interp_norm"
    monkeypatch.setattr("sys.argv", ["interpk", "--version"])
    assert main() == 0
    assert capsys.readouterr().out == f"{__version__}\n"


# ---------------------------------------------------------------------------
# verify schema
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("check", sorted(VERIFY_CHECKS))
def test_schema_hints_match_type_hints(check):
    # one signature read gives the annotations typing.get_type_hints gives
    fn = getattr(verify, VERIFY_CHECKS[check])
    defaults, required, hints, run_keys = cli._check_schema(fn)
    expected = typing.get_type_hints(fn)
    assert hints == {k: v for k, v in expected.items() if k in defaults}
    assert (defaults, required) == cli.verify_schema(check)
    assert run_keys == {"seed", "keep_trace"} & set(expected)
