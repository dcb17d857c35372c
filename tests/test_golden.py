"""Fixed-seed train and bench outputs reproduce tests/golden byte for byte.

The commands are read from tests/golden/README.md, so the fixtures and the
way to regenerate them cannot drift apart.
"""

import shlex
from pathlib import Path

import pytest

from vcdc.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _commands():
    lines = (GOLDEN / "README.md").read_text(encoding="ascii").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("vcdc ")]


def _case_name(argv):
    return Path(argv[argv.index("--out") + 1]).name


@pytest.mark.parametrize("argv", _commands(), ids=_case_name)
def test_outputs_match_golden_bytes(argv, tmp_path, monkeypatch):
    argv = list(argv)
    i = argv.index("--out") + 1
    expected_dir = ROOT / argv[i]
    argv[i] = str(tmp_path / "out")
    monkeypatch.chdir(ROOT)  # the bench commands name the checkpoint relative to it
    assert main(argv) == 0
    produced = {p.name for p in (tmp_path / "out").iterdir() if p.suffix != ".config"}
    expected = {p.name for p in expected_dir.iterdir()}
    assert produced == expected
    for name in sorted(expected):
        assert (tmp_path / "out" / name).read_bytes() == (expected_dir / name).read_bytes(), name
