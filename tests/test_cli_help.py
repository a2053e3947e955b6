"""Golden pin of ``repro <cmd> [<sub>] --help`` for every command.

The parser tree is walked, not listed, so a new command or subcommand
without a golden entry fails here too. Hidden flags (``help=SUPPRESS``)
print nothing, so adding or removing one leaves the golden unchanged.

argparse's layout differs slightly across Python versions, so the bytes
are compared on the version that wrote the golden; on any other version
the texts are compared with whitespace runs collapsed, which still catches
a changed flag, metavar, default or help string. After an intended change::

    PYTHONPATH=src python -m pytest tests/test_cli_help.py --update-golden
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_help.txt"

#: Header line of each command's section in the golden file.
_HEAD = re.compile(r"^==> (.+) <==$", re.M)


def _walk(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """Yield ``(argv prefix, parser)`` for the root and every subparser."""
    yield prefix, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _walk(sub, prefix + (name,))


def _help_texts(monkeypatch) -> dict[str, str]:
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    return {" ".join(("repro",) + argv + ("--help",)): p.format_help()
            for argv, p in _walk(build_parser())}


def _squash(text: str) -> str:
    return " ".join(text.split())


def _write_golden(version: str, texts: dict[str, str]) -> None:
    parts = [f"python {version}\n"]
    parts += [f"==> {cmd} <==\n{texts[cmd]}" for cmd in sorted(texts)]
    GOLDEN_PATH.write_text("".join(parts))


def _read_golden() -> tuple[str, dict[str, str]]:
    first, _, body = GOLDEN_PATH.read_text().partition("\n")
    pieces = _HEAD.split(body)[1:]  # [cmd, text, cmd, text, ...]
    return first.split()[1], dict(zip(pieces[::2], (t[1:] for t in pieces[1::2])))


def test_help_matches_golden(monkeypatch, request):
    texts = _help_texts(monkeypatch)
    version = "{}.{}".format(*sys.version_info[:2])
    if request.config.getoption("--update-golden"):
        _write_golden(version, texts)
    golden_version, golden = _read_golden()
    assert sorted(texts) == sorted(golden)
    for cmd, text in texts.items():
        if golden_version == version:
            assert text == golden[cmd], f"{cmd} changed"
        else:
            assert _squash(text) == _squash(golden[cmd]), f"{cmd} changed"


def test_format_help_is_what_help_prints(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as ei:
        build_parser().parse_args(["spool", "compact", "--help"])
    assert ei.value.code == 0
    assert capsys.readouterr().out == \
        _help_texts(monkeypatch)["repro spool compact --help"]
