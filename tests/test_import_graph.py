"""A fresh process loads no scipy module until its first general RLD flow,
whose stage solve imports LAPACK zheevd from scipy.linalg (0.14-0.33 s and
26 MB of RSS per process). scipy.integrate would also pull in scipy.special,
scipy.optimize and scipy.sparse; the package carries its two quadrature rules
itself, and nothing loads them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNWANTED = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse")

# printed last by each child: every scipy module it holds
REPORT = "import sys, json; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def _scipy_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_heavy_scipy_subpackage():
    assert _scipy_after("import revfid, revfid.cli") == []


def test_cli_suite_loads_no_scipy():
    code = "import revfid.cli\nassert revfid.cli.main(['suite', 'all', '--trials', '1']) == 0"
    assert _scipy_after(code) == []


def test_cli_compute_loads_no_scipy(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"re": [[0.6, 0.1], [0.1, 0.4]], "im": [[0.0, 0.2], [-0.2, 0.0]]}))
    b.write_text(json.dumps({"re": [[0.3, 0.0], [0.0, 0.7]]}))
    code = f"import revfid.cli\nassert revfid.cli.main(['compute', 'fmin', {str(a)!r}, {str(b)!r}]) == 0"
    assert _scipy_after(code) == []


def test_rld_flow_loads_scipy_linalg_only():
    code = (
        "from revfid import geodesic_start, random_density, rld_geodesic_flow\n"
        "gs, total = geodesic_start(random_density(3, 3, 1), random_density(3, 3, 2))\n"
        "rld_geodesic_flow(gs, total / 500, 50)"
    )
    loaded = _scipy_after(code)
    assert "scipy.linalg" in loaded
    assert [m for m in UNWANTED if m in loaded] == []
