"""The hardware layer's IRQ context tracking stays import-light: a
simulation loads no analysis module unless an analysis plane asks."""

import json
import os
import subprocess
import sys

import repro


def test_simulation_imports_load_no_analysis_module():
    probe = ("import json, sys\n"
             "import repro.experiments\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.startswith('repro.analysis'))))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout) == []
