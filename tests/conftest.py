import os
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest


@pytest.fixture
def pools(monkeypatch):
    """The pools that ``io._span_results`` makes for the CSV writer and
    reader, on two CPUs whatever the machine has; the quadrature oracle
    makes none."""
    # they make no pool beside another thread (of a plugin, say)
    assert threading.active_count() == 1
    made = []
    real_init = ProcessPoolExecutor.__init__

    def init(pool, *args, **kwargs):
        made.append(pool)
        real_init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", init)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return made
