"""Every example of the README's CLI section runs and exits 0, and the
bytes they print and write are pinned."""
import hashlib
import shlex
from pathlib import Path

from sparsedisc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# sha256 over each example's stdout in turn, then every file the examples
# leave behind (relative path and bytes, sorted by path).  Any change to
# the output of an example changes it; re-derive it only together with a
# change that says why those bytes moved.
CLI_OUTPUT_SHA256 = "214a191cfed5b4278db07405cb7a03111f4730e8eebefdef5507ef391f359df3"


def cli_examples() -> list[str]:
    """The lines of the first code block after the "## CLI" heading."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


def test_every_cli_example_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) >= 10
    digest = hashlib.sha256()
    for line in examples:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "sparsedisc", line
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        digest.update(out.encode() + b"\0")
        if target is not None:
            (tmp_path / target).write_text(out)
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    assert digest.hexdigest() == CLI_OUTPUT_SHA256
