"""The CLI contract script, ``tests/cli_contract.sh``, run with an ``sffuse``
shim on ``PATH`` in place of the installed console script, so its ``cmp`` and
exit-code checks are checked here, not only on a CI runner. The workflow's
"Installed entry point" step runs the same file."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SCRIPT = "tests/cli_contract.sh"

# What the console script does: ``main()`` reads its arguments from sys.argv.
SHIM = ('#!/bin/sh\n'
        'exec "{python}" -c "import sys; from sffuse.cli import main; sys.exit(main())" "$@"\n')


def test_installed_entry_point_step_runs_the_contract_script() -> None:
    lines = [line.strip() for line in WORKFLOW.read_text(encoding="utf-8").splitlines()]
    step = lines.index("- name: Installed entry point")
    assert lines[step + 1] == f"run: bash {SCRIPT}"


@pytest.mark.skipif(any(shutil.which(tool) is None for tool in ("bash", "cmp", "timeout")),
                    reason="needs bash, cmp and timeout")
def test_installed_entry_point_step_passes(tmp_path) -> None:
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "sffuse"
    shim.write_text(SHIM.format(python=sys.executable), encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=str(ROOT / "src"), RUNNER_TEMP=str(tmp_path))
    done = subprocess.run(["bash", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
