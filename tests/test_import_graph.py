"""Import-graph pins: a fresh ``import repro`` never loads ``scipy.stats``,
and building the CLI parser never loads the service supervisor.

Importing ``scipy.stats`` costs about a second and ~45 MB in every fresh
interpreter (CLI start, each spawned pool worker, each service shard), and
``src/`` needs none of it: the few distribution functions it uses are
``scipy.special`` ufuncs called directly (DESIGN §7).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

# Records which repro module first asked for scipy.stats, by walking the
# importing frames back to the innermost one whose module is in repro.
_PROBE = r"""
import json
import sys


class Witness:
    culprit = None

    def find_spec(self, fullname, path=None, target=None):
        if fullname == "scipy.stats" and self.culprit is None:
            self.culprit = "<outside repro>"
            frame = sys._getframe(1)
            while frame is not None:
                name = frame.f_globals.get("__name__", "")
                if name == "repro" or name.startswith("repro."):
                    self.culprit = name
                    break
                frame = frame.f_back
        return None


witness = Witness()
sys.meta_path.insert(0, witness)
import {module}
print(json.dumps({{"loaded": "scipy.stats" in sys.modules,
                  "culprit": witness.culprit}}))
"""


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_leaves_scipy_stats_out(module):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    p = subprocess.run([sys.executable, "-c", _PROBE.format(module=module)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    seen = json.loads(p.stdout.splitlines()[-1])
    assert not seen["loaded"], (
        f"import {module} loaded scipy.stats via {seen['culprit']}")


def test_probe_names_the_importing_module(tmp_path):
    """The witness must blame the repro module that asked, or the pin's
    failure message would point nowhere."""
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from repro import leaky\n")
    (pkg / "leaky.py").write_text("from scipy.stats import norm\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    p = subprocess.run([sys.executable, "-c", _PROBE.format(module="repro")],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout.splitlines()[-1]) == {
        "loaded": True, "culprit": "repro.leaky"}


def test_cli_parser_leaves_service_supervisor_out():
    """The ``serve``/``submit`` flag defaults come from ``ServiceConfig`` and
    ``JobSpec``; reading them must not load the supervisor or the worker."""
    probe = ("import json, sys, repro.cli\n"
             "repro.cli.build_parser()\n"
             "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    p = subprocess.run([sys.executable, "-c", probe],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    loaded = set(json.loads(p.stdout.splitlines()[-1]))
    assert "repro.service.config" in loaded  # the probe reached the defaults
    assert not loaded & {"repro.service.supervisor", "repro.service.worker"}
