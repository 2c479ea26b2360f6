"""Byte-identical fingerprints and compiled schedules of example protocols.

``Protocol.fingerprint`` keys the compiled-program cache and the list
scheduler binds every operation through ``Binder.candidates``; both
have per-type tables now (dataclass field names per command type,
candidate resources per operation type).  The digests below were
recorded before those tables went in: the fingerprint string itself,
and a sha256 over each compiled entry ``(op_id, resource, start, end)``
and the run order.
"""

import hashlib

import numpy as np
import pytest

from repro import Biochip, Protocol, compile_protocol
from repro.bio import mammalian_cell, polystyrene_bead
from repro.core.protocol import viability_sort_protocol
from repro.workloads import service_protocol_variant

GRID = Biochip.small_chip().grid


def merge_protocol():
    return (
        Protocol("pair")
        .trap("cell", (10, 10), mammalian_cell())
        .trap("bead", (10, 30), polystyrene_bead())
        .move("cell", (20, 20))
        .merge("cell", "bead")
        .sense("cell", samples=1500)
        .incubate("cell", 30.0)
        .release("cell")
    )


def viability_protocol():
    rng = np.random.default_rng(3)
    pairs = []
    for i in range(12):
        viable = bool(rng.random() < 0.5)
        pairs.append((f"c{i}", mammalian_cell(viable=viable),
                      (2 + 3 * i, 20), viable))
    return viability_sort_protocol(pairs, left_column=4, right_column=40)


def serving_protocol():
    return service_protocol_variant(GRID, variant=2, n_cages=5)


EXAMPLES = {
    "merge": merge_protocol,
    "viability": viability_protocol,
    "serving": serving_protocol,
}

#: (fingerprint, sha256 of the compiled schedule), recorded per example.
RECORDED = {
    "merge": ("e0727869a3b18993",
              "fec60d78caced0b9216fe9409cbc757d5982847c0a50f04522cdd5309f665235"),
    "serving": ("67b6daef17e2f90d",
                "8084c46e17ae9d4ade1caf0dae7f35ccafdc77cb35c73c971347ff7122afc200"),
    "viability": ("ea6adbf72549178b",
                  "d2ea95c8fbde0ece4ec7fd70fa24e70dd34f37754fb69d45511af8e6fdda1f2a"),
}


def schedule_digest(program):
    digest = hashlib.sha256()
    for entry in sorted(program.schedule.entries, key=lambda e: e.op_id):
        digest.update(
            repr((entry.op_id, entry.resource, entry.start, entry.end)).encode()
        )
    digest.update(repr(program.run_order).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_fingerprint_and_schedule_match_recorded(name):
    protocol = EXAMPLES[name]()
    fingerprint, schedule = RECORDED[name]
    assert protocol.fingerprint() == fingerprint
    assert schedule_digest(compile_protocol(protocol, GRID)) == schedule
