"""main builds the parser of the command that argv starts with alone, and the parser of every
command otherwise. Against the parser of every command, the oracle: the same stdout, stderr, exit
code and parsed namespace for any argv."""

from __future__ import annotations

import argparse
import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hrpkit import cli
from hrpkit.cli import build_parser, main

COMMANDS = ["detect", "enrich", "portmatrix", "stability", "vantage", "applayer", "plan", "escalate", "evaluate"]


def _options() -> dict[str, list[str]]:
    """command -> its option strings, from the full parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [flag for action in parser._actions for flag in action.option_strings]
            for name, parser in sub.choices.items()}


def _abbreviated(flags) -> list[str]:
    """Each long option cut short: to an abbreviation of it alone, or of it and another."""
    return sorted({flag[:n] for flag in flags if flag.startswith("--") for n in range(3, len(flag))})


OPTIONS = _options()
EVERY_OPTION = sorted({flag for flags in OPTIONS.values() for flag in flags})
# Values for the options and the positionals: good ones, bad ones, and ones that look like options.
VALUES = ["443", "0", "65535", "65536", "-1", "x", "", "4_43", "0.9", "1.5", "1e-1", "257", "tcp", "udp", "sctp",
          "plain", "csv_saddr", "strict", "lenient", "csv", "jsonl", "xml", "a.csv", "b.csv", "-", "--", "-x",
          "--bogus", "2024-01-01T00:00:00Z"]
# What comes before the command, mostly nothing: help, '--', an option.
HEAD = st.sampled_from([[]] * 8 + [["-h"], ["--help"], ["--he"], ["--"], ["--bogus"], ["-x"], ["--port", "443"]])
# The command, mostly one of the nine: else another word, or none.
NAME = st.sampled_from(COMMANDS * 4 + ["bogus", "det", "Detect", "", "-", "help", None])
# Each command's least argv, which random options and values may follow.
LEAST = {"detect": ["--port", "443", "a.csv"], "enrich": ["a.csv", "b.csv"], "portmatrix": ["a.csv"],
         "stability": ["a.csv", "b.csv"], "vantage": ["a.csv", "b.csv"], "applayer": ["--port", "443", "a.csv", "b.csv"],
         "plan": ["--port", "443", "a.csv"], "escalate": ["--port", "443", "a.csv", "b.csv", "c.csv"],
         "evaluate": ["a.csv", "b.csv"]}


class _Parsed(Exception):
    """Raised in place of running a command: the namespace its argv parsed to."""


def _in_main(argv: list[str]):
    """main over argv, its command never run: (which parser it built, stdout, stderr, the exit
    code or the namespace)."""
    built = []

    def build(command=None):
        parser = build_parser(command)  # the real one, which the patch leaves here
        built.append(command)
        parse = parser.parse_args

        def parse_args(args=None, namespace=None):
            raise _Parsed(parse(args, namespace))

        parser.parse_args = parse_args
        return parser

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "build_parser", build), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = main(argv)
        except _Parsed as parsed:
            result = parsed.args[0]
    return built, out.getvalue(), err.getvalue(), result


def _in_the_full_parser(argv: list[str]):
    """The parser of every command over argv: (stdout, stderr, the exit code or the namespace)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = build_parser().parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return out.getvalue(), err.getvalue(), result


def _assert_main_parses_as_the_full_parser(argv: list[str]) -> None:
    built, out, err, result = _in_main(argv)
    assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
    assert (out, err, result) == _in_the_full_parser(argv)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_main_parses_as_the_full_parser_does(data):
    head, name = data.draw(HEAD), data.draw(NAME)
    # The command's options, cut short or not, and now and then another's, or help.
    own = [flag for flag in OPTIONS.get(name, EVERY_OPTION) if flag not in ("-h", "--help")]
    flag = st.sampled_from(own + _abbreviated(own)) | st.sampled_from(EVERY_OPTION)
    tokens = data.draw(st.lists(st.tuples(flag, st.sampled_from(VALUES)).map(list) | flag.map(lambda token: [token])
                                | st.sampled_from(VALUES).map(lambda value: [value]), max_size=3))
    least = LEAST.get(name, []) if data.draw(st.booleans()) else []
    _assert_main_parses_as_the_full_parser([*head, *([] if name is None else [name]), *least, *sum(tokens, [])])


@pytest.mark.parametrize("argv", [
    [],
    ["--", "detect", "--port", "443", "a.csv"],
    ["vantage", "a.csv", "b.csv", "c.csv"],  # an extra argument: the top level's error
    ["detect", "--po", "443", "a.csv"],  # ambiguous: --port or --policy
    ["detect", "--thr", "1.5", "--port", "443", "a.csv"],
    ["plan", "--port", "443", "--thr", "0.5", "--k", "5", "--no-unr", "--rng", "7", "a.csv"],
    ["stability", "--persistence", "x", "a.csv"],
    ["escalate", "--cdn", "0.9", "a.csv"],  # no --port, and too few positionals
    ["--port", "443", "detect", "a.csv"],
])
def test_main_parses_these_as_the_full_parser_does(argv):
    _assert_main_parses_as_the_full_parser(argv)


@given(command=st.sampled_from(COMMANDS), flag=st.sampled_from(["-h", "--help", "--he", "--hel"]))
def test_each_commands_help_is_the_full_parsers(command, flag):
    built, out, err, code = _in_main([command, flag])
    assert (built, code, err) == ([command], 0, "")
    assert out.startswith(f"usage: hrpkit {command} [-h]")
    assert (out, err, code) == _in_the_full_parser([command, flag])


def test_a_command_alone_still_names_every_command_in_its_usage_line():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["vantage", "a.csv", "b.csv", "c.csv"]) == 2
    assert "{" + ",".join(COMMANDS) + "}" in err.getvalue().replace("\n", "").replace(" ", "")
    assert err.getvalue().endswith("hrpkit: error: unrecognized arguments: c.csv\n")
