"""The package runs on numpy alone.

A fresh interpreter refuses every ``scipy`` import, then imports every
module under ``repro`` and runs the README quickstart protocol plus a
bead trap/sense (an nDEP particle, so the levitation root solve runs).
It must finish without a single ``scipy`` module loaded, whether or not
SciPy is installed.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys


    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r} (refused)", name=name)
            return None


    sys.meta_path.insert(0, RefuseScipy())

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)

    from repro import Protocol, Session
    from repro.bio import mammalian_cell, polystyrene_bead

    session = Session.simulator()
    protocol = (
        Protocol("hello-cage")
        .trap("cell", site=(10, 10), particle=mammalian_cell())
        .move("cell", (30, 35))
        .sense("cell", samples=2000)
        .release("cell")
    )
    result = session.run(protocol)
    print(result.summary())
    print(result.readings("cell"), result.detections("cell"))

    bead = polystyrene_bead()
    assert session.backend.chip.dep_cage(bead).levitation_height() is not None
    result = session.run(Protocol("bead").trap("b", (4, 4), bead).sense("b", 200).release("b"))
    assert len(result.readings("b")) == 1

    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, loaded
    print("no scipy")
    """
)


def test_repro_imports_and_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("no scipy")
