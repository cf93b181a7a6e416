"""README examples: the library session runs as a doctest, and the CLI
transcripts are pinned byte for byte against the real command output."""

import doctest
import json
import re
from pathlib import Path

from anthyphairesis.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"

# Transcripts README shows, with the exit code each one must end with.
README_COMMANDS = {
    "anth 17": 0,
    "pair 17 5": 0,
    "gcd 170 50 --trace": 0,
    "convergents 2 -n 5": 0,
    "certify 17 --method residue": 1,
    "table --to 17": 0,
}

# The finite-branch text of sqrt(C) for a square C, which README does not show.
FINITE_BRANCH = {
    "anth 16": "sqrt(16) = 4 = [4]\n"
    "verdict: commensurable with 1 (finite anthyphairesis, 1 division)\n",
    "certify 16 --method anth": "sqrt(16) = 4: commensurable (finite chain)\n",
}


def fenced_blocks(info: str) -> list[str]:
    """Bodies of README's fenced code blocks whose info string is `info`."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
    return [body for lang, body in blocks if lang == info]


def readme_transcripts() -> dict[str, str]:
    """Map `ARGS` of each `$ anthyph ARGS` line to the output shown below it.

    A transcript runs to the next blank line or the end of its block.
    """
    out = {}
    for block in fenced_blocks(""):
        for chunk in block.split("\n\n"):
            head, _, body = chunk.partition("\n")
            if head.startswith("$ anthyph "):
                out[head[len("$ anthyph ") :]] = body.rstrip("\n") + "\n"
    return out


def run_cli(capsys, command: str):
    code = run(command.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_library_session_runs_as_doctest():
    (block,) = fenced_blocks("python")
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    assert result.attempted == 10


def test_cli_output_is_pinned(capsys, monkeypatch):
    monkeypatch.delenv("ANTH_MAX_STEPS", raising=False)
    shown = readme_transcripts()
    expected = {cmd: (code, shown[cmd]) for cmd, code in README_COMMANDS.items()}
    expected.update({cmd: (0, text) for cmd, text in FINITE_BRANCH.items()})
    for command, (code, text) in expected.items():
        assert run_cli(capsys, command) == (code, text, ""), command


def test_anth_json_matches_readme_document(capsys, monkeypatch):
    monkeypatch.delenv("ANTH_MAX_STEPS", raising=False)
    documented = json.loads(readme_transcripts()["anth 3 --json"])
    code, out, err = run_cli(capsys, "anth 3 --json")
    assert (code, err) == (0, "")
    assert json.loads(out) == documented
