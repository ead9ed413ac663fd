"""Every estimating command takes its estimation flags from ``KadabraOptions``.

``repro.core.options.KadabraOptions`` declares each estimation flag's type,
default and help once; the estimation command, ``session run``, ``query``,
``dist run`` and ``dist worker`` add them with ``add_option_flags``.  These
tests pin the consequences: with no accuracy flag every command, and the
service's ``QueryRequest``, asks for ``KadabraOptions()``'s target, and each
command's ``--help`` lists the same options as before the flags moved.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import build_dist_parser, build_parser, build_query_parser, build_session_parser
from repro.cli import main as cli_main
from repro.core.options import KadabraOptions
from repro.service.schema import QueryRequest

#: The five estimating commands: (parser, argv with no accuracy flag, argv to print --help).
COMMANDS = {
    "estimation": (build_parser, ["g.txt"], []),
    "session run": (build_session_parser, ["run", "g.txt", "--checkpoint", "c.snap"], ["session", "run"]),
    "query": (build_query_parser, ["g.txt"], ["query"]),
    "dist run": (build_dist_parser, ["run", "g.rcsr"], ["dist", "run"]),
    "dist worker": (
        build_dist_parser, ["worker", "--graph", "g.rcsr", "--rank", "0", "--size", "1"], ["dist", "worker"]
    ),
}

#: Each command's option strings, as its --help listed them when every command still spelled its own flags.
OPTION_STRINGS = {
    "estimation": {
        "-h", "--help", "--eps", "--delta", "--seed", "--algorithm", "--processes", "--threads", "--kernel",
        "--top", "--output", "--csv", "--no-cache", "--progress", "--list-backends", "--list-kernels", "--version",
    },
    "session run": {"-h", "--help", "--eps", "--delta", "--seed", "--checkpoint", "--top", "--output", "--no-cache"},
    "query": {
        "-h", "--help", "--eps", "--delta", "--seed", "--algorithm", "--top", "--host", "--port", "--no-wait",
        "--timeout", "--json",
    },
    "dist run": {
        "-h", "--help", "--processes", "--parts", "--algorithm", "--threads", "--eps", "--delta", "--seed",
        "--samples-per-check", "--calibration-samples", "--max-samples", "--max-epochs", "--checkpoint",
        "--checkpoint-every", "--max-restarts", "--host", "--port", "--timeout", "--output", "--top",
    },
    "dist worker": {
        "-h", "--help", "--graph", "--rank", "--size", "--host", "--port", "--parts", "--algorithm",
        "--threads", "--eps", "--delta", "--seed", "--samples-per-check", "--calibration-samples",
        "--max-samples", "--max-epochs", "--checkpoint", "--checkpoint-every", "--resume", "--timeout", "--output",
    },
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_no_accuracy_flag_means_the_options_defaults(command):
    build, argv, _ = COMMANDS[command]
    args = build().parse_args(argv)
    default = KadabraOptions()
    assert (args.eps, args.delta, args.seed) == (default.eps, default.delta, default.seed)


def test_a_query_request_defaults_to_the_options_defaults():
    request, default = QueryRequest(graph="g"), KadabraOptions()
    assert (request.eps, request.delta, request.seed) == (default.eps, default.delta, default.seed)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_the_same_options(command, capsys):
    with pytest.raises(SystemExit):
        cli_main([*COMMANDS[command][2], "--help"])
    listed = re.findall(r"^  (-[\w-]+)(?:, (--[\w-]+))?", capsys.readouterr().out, re.MULTILINE)
    assert {flag for pair in listed for flag in pair if flag} == OPTION_STRINGS[command]
