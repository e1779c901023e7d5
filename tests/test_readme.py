"""Each ``python`` block and the command-line session of README.md run as written.

The blocks are the documented library surface: they import their names
from ``rws`` and call them the way the README says.  The session writes
its config from the heredoc and runs each ``rws`` line through
``cli.main``.  Both run in-process under the suite's
``error::RuntimeWarning`` filter.
"""

import re
import shlex
from pathlib import Path

import pytest

from rws import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
SESSION = next(block for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
               if "\nrws " in block)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_command_line_session_runs(tmp_path, monkeypatch):
    # each command exits 0 and writes, under its --out, a manifest and every file its comment names
    monkeypatch.chdir(tmp_path)
    name, config = re.search(r"^cat > (\S+) <<EOF\n(.*?^)EOF$", SESSION, flags=re.DOTALL | re.MULTILINE).groups()
    Path(name).write_text(config)
    lines = re.findall(r"^rws .*$", SESSION, flags=re.MULTILINE)
    assert len(lines) == 4
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            for file in ["manifest.txt", *re.findall(r"\w+\.(?:rws|txt|csv)", line.partition("#")[2])]:
                assert (out / file).is_file(), (line, file)
