"""Every example of the README's CLI section runs and exits 0."""
import shlex
from pathlib import Path

from sparsedisc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[str]:
    """The lines of the first code block after the "## CLI" heading."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


def test_every_cli_example_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) >= 10
    for line in examples:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "sparsedisc", line
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        if target is not None:
            (tmp_path / target).write_text(out)
