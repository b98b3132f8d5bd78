"""The package imports numpy and scipy.linalg only. scipy.integrate would pull in
scipy.special, scipy.optimize and scipy.sparse, about 0.3 s and 23 MB per
process, for two quadrature rules the package carries itself."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNWANTED = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse")


def test_import_loads_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "import revfid, revfid.cli, sys; "
        f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules)); "
        "print('scipy.linalg' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, linalg = proc.stdout.splitlines()
    assert loaded == ""
    assert linalg == "True"  # the RLD flow's zheevd comes from scipy.linalg
