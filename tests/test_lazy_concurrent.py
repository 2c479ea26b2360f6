"""``import repro`` does not load the wall-clock tier.

``repro.service.concurrent`` (worker threads, the asyncio front end)
is imported on first use of one of its names.  A fresh interpreter
imports ``repro``, runs a virtual-tier service job, and checks that
neither ``asyncio`` nor the tier was loaded; then the top-level names
still resolve to the tier's classes.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import repro
    from repro import Biochip, ExecutionService, Protocol, ServiceConfig

    service = ExecutionService.simulator(
        ServiceConfig(n_chips=1), chip=Biochip.small_chip()
    )
    protocol = Protocol("p").trap("a", (4, 4)).sense("a", 50).release("a")
    handle = service.submit(protocol)
    service.drain()
    assert handle.result(wait=False).run is not None

    loaded = [name for name in ("asyncio", "repro.service.concurrent")
              if name in sys.modules]
    assert not loaded, loaded

    from repro import ConcurrentExecutionService
    from repro.service import AsyncExecutionService, SenseTap
    from repro.service.concurrent import workers

    assert ConcurrentExecutionService is workers.ConcurrentExecutionService
    assert repro.ConcurrentConfig is workers.ConcurrentConfig
    assert AsyncExecutionService.__module__ == "repro.service.concurrent.frontend"
    assert SenseTap.__module__ == "repro.service.concurrent.syncbridge"
    assert "asyncio" in sys.modules
    for name in repro.__all__:
        getattr(repro, name)
    print("lazy ok")
    """
)


def test_import_repro_leaves_the_concurrent_tier_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("lazy ok")


def test_unknown_attributes_still_raise():
    import repro
    import repro.service

    for module in (repro, repro.service):
        try:
            module.NoSuchName
        except AttributeError as error:
            assert "NoSuchName" in str(error)
        else:
            raise AssertionError(f"{module.__name__}.NoSuchName resolved")
