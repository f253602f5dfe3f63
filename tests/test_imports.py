"""What importing cdce loads, each check in a fresh interpreter.

scipy is a test dependency only. numpy loads numpy.random lazily, so cdce
imports it itself; otherwise the first trial would pay for that import.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def run_fresh(code: str):
    """Run `code` in a fresh interpreter with only src on PYTHONPATH and
    return the JSON value on its last line of output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert run_fresh(f"import json, sys\nimport cdce\nprint(json.dumps({SCIPY_MODULES}))") == []


def test_cli_single_loads_no_scipy():
    code = (
        "import json, sys\n"
        "from cdce import cli\n"
        "code = cli.main(['single', '--config', 'configs/pilot_only.yaml', '--snr-db', '10', '--trial', '0'])\n"
        f"print(json.dumps([code, {SCIPY_MODULES}]))"
    )
    assert run_fresh(code) == [0, []]


def test_first_trial_imports_nothing():
    code = (
        "import json, sys\n"
        "import cdce\n"
        "before = set(sys.modules)\n"
        "cfg = cdce.load_config('bench/configs/random_pilots.yaml', env={})\n"
        "cdce.run_trial(cfg, cfg.snr_grid_db[0], 0)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert run_fresh(code) == []
