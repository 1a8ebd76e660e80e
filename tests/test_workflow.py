"""The workflow's "Installed entry point" step, run as written: its ``run:``
block goes to bash with an ``sffuse`` shim on ``PATH`` in place of the
installed console script, so its ``cmp`` and exit-code checks are checked
here, not only on a CI runner."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "- name: Installed entry point"

# What the console script does: ``main()`` reads its arguments from sys.argv.
SHIM = ('#!/bin/sh\n'
        'exec "{python}" -c "import sys; from sffuse.cli import main; sys.exit(main())" "$@"\n')


def step_script(name: str) -> str:
    """The ``run: |`` block of the step named ``name``, dedented (PyYAML is
    not a dependency, so the block is cut out by indentation)."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == name)
    run = lines[start + 1]
    assert run.strip() == "run: |", f"{name!r} is not followed by a 'run: |' block"
    indent = len(run) - len(run.lstrip())
    block = []
    for line in lines[start + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("bash", "cmp", "timeout")),
                    reason="needs bash, cmp and timeout")
def test_installed_entry_point_step_passes(tmp_path) -> None:
    script = step_script(STEP)
    assert "cmp " in script
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "sffuse"
    shim.write_text(SHIM.format(python=sys.executable), encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=str(ROOT / "src"), RUNNER_TEMP=str(tmp_path))
    # bash -e, as a runner runs a step with no ``shell:`` of its own.
    done = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
