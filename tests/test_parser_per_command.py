"""Each CLI process builds the argparse parser of its own command only.

``main`` builds the subparser of the command named first in argv; a bare
``-h``, no command or an unknown one builds them all.  Help and usage errors
must read byte for byte as from a parser built with every command: the
stdout of ``groupcut -h``, of ``groupcut <command> -h`` for every command and
of ``groupcut test <kind> -h`` for both kinds, and the stderr and exit code 2
of a usage error of each command and of the top-level parser.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from groupcut import cli

HELP = [["-h"], *([name, "-h"] for name in cli._COMMANDS), ["test", "minimality", "-h"], ["test", "extremality", "-h"]]
USAGE_ERRORS = [
    [],
    ["nosuchcommand"],
    ["--nosuchoption", "list"],
    ["construct"],
    ["construct", "gmic", "--n", "x"],
    ["list", "extra"],
    ["test"],
    ["test", "nosuchkind", "f.json"],
    ["test", "extremality", "f.json", "--oversampling", "x"],
    ["restrict", "f.json"],
    ["interpolate"],
    ["apply", "nosuchop", "f.json"],
    ["plot", "nosuchkind", "f.json"],
]


def run(parse, argv):
    """(exit code, stdout, stderr) of a parse that exits, as argparse does
    on help and on usage errors."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def whole_build(argv):
    return cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_reads_as_from_every_command(argv):
    code, out, err = run(cli.main, argv)
    assert (code, out, err) == run(whole_build, argv)
    assert code == 0 and out.startswith("usage: groupcut") and err == ""


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: " ".join(argv) or "no command")
def test_usage_errors_read_as_from_every_command(argv):
    code, out, err = run(cli.main, argv)
    assert (code, out, err) == run(whole_build, argv)
    assert code == 2 and out == "" and err.startswith("usage: groupcut")


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_command_builds_its_own_parser_only(command, monkeypatch):
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda name=None: built.append(real(name)) or built[-1])
    run(cli.main, [command, "-h"])
    assert [subcommands(parser) for parser in built] == [[command]]


@pytest.mark.parametrize("command", [None, "-h", "nosuchcommand"])
def test_no_command_builds_every_parser(command):
    assert subcommands(cli._build_parser(command)) == list(cli._COMMANDS)
