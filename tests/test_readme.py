"""The README's CLI walkthrough and its library example run as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import mosuq

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(heading: str, language: str) -> list[str]:
    """The code blocks of one language in a "## " section, in order."""
    text = README.read_text()
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, flags=re.S)


def walkthrough_blocks() -> list[str]:
    """The bash blocks of the "CLI walkthrough" section, in order."""
    return code_blocks("CLI walkthrough", "bash")


def test_walkthrough_has_every_command():
    text = "\n".join(walkthrough_blocks())
    for command in ("gen-data", "train", "calibrate", "evaluate", "ood-detect"):
        assert f"mosuq {command}" in text


def test_walkthrough_runs_verbatim(tmp_path):
    """Each block runs under `bash -e` in one directory, with `mosuq` on the
    PATH running this checkout's package, and every command exits 0."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "mosuq"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m mosuq "$@"\n')
    shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    src = str(Path(mosuq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    blocks = walkthrough_blocks()
    assert blocks
    for block in blocks:
        proc = subprocess.run(
            ["bash", "-e", "-c", block], cwd=work, env=env,
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"


def test_library_example_runs_verbatim(capsys):
    """The "Library use" block runs as one script and prints the MC mean and
    the epistemic variance of its first test row."""
    (block,) = code_blocks("Library use", "python")
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    y_mean, epi_dist_var = (float(v) for v in capsys.readouterr().out.split())
    assert 1.0 < y_mean < 5.0
    assert epi_dist_var > 0.0
