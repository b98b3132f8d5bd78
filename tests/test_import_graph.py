"""The runtime needs numpy only: a fresh process loads no scipy module on import,
on the CLI, or on a general RLD flow, whose stage solve is numpy's own LAPACK
gufunc (gesv up to d = 4, heevd above). scipy is a test extra, for the tests'
quadrature and Sylvester oracles; with it blocked the package still imports, flows
and runs its CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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


FLOW = (
    "from revfid import geodesic_start, random_density, rld_geodesic_flow\n"
    "gs, total = geodesic_start(random_density(3, 3, 1), random_density(3, 3, 2))\n"
    "rld_geodesic_flow(gs, total / 500, 50)"
)


def test_rld_flow_loads_no_scipy():
    assert _scipy_after(FLOW) == []


def test_runs_with_scipy_blocked(tmp_path):
    # an import of any scipy module raises ImportError in this child
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"re": [[0.6, 0.1], [0.1, 0.4]]}))
    b.write_text(json.dumps({"re": [[0.3, 0.0], [0.0, 0.7]]}))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import revfid, revfid.cli\n"
        f"{FLOW}\n"
        "assert revfid.cli.main(['suite', 'all', '--trials', '1']) == 0\n"
        f"assert revfid.cli.main(['compute', 'fmin', {str(a)!r}, {str(b)!r}]) == 0"
    )
    assert _scipy_after(code) == ["scipy"]  # the blocking entry, and no module beneath it
