"""The README's comparison experiment runs as written."""

import shlex
from pathlib import Path

from rpt.cli import dispatch

README = Path(__file__).parents[1] / "README.md"


def experiment_commands() -> list[list[str]]:
    """The rpt lines of the sh block under "## Comparison experiment"."""
    section = README.read_text(encoding="utf-8").split("## Comparison experiment")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    lines = [line for line in block.splitlines() if line.startswith("rpt ")]
    return [shlex.split(line)[1:] for line in lines]


def test_comparison_experiment(tmp_path, monkeypatch, capsys):
    commands = experiment_commands()
    assert [argv[0] for argv in commands] == ["synth", "contaminate", "compare"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert dispatch(argv) == 0, argv
    rows = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "block_size,method,total_error,num_blocks"
    assert len(rows) == 11
    assert len(list((tmp_path / "errors").iterdir())) == 10
    assert len(capsys.readouterr().out.splitlines()) == 10
