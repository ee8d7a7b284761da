"""Pins: the sampler's and the exposure poller's outputs, byte for byte.

``trace`` runs a :class:`~repro.obs.PeriodicSampler` and ``exposure`` the
exposure poller (:func:`~repro.obs.start_exposure_poller`), both on the
simulator's periodic clock.  These sha256 digests were recorded from the
generator-process pollers the clock replaced, and two reruns there were
byte-identical; the clock must reproduce every tick.
"""

from __future__ import annotations

import hashlib

from repro.cli import main

PINS = {
    "trace.json": "97d03c10592becea059f91732e3351cbb9143fec0ad4881dc0f5ea6b41d44ba1",
    "trace.jsonl": "d2d2296c20b7bcb522436f8542d35df9429e418ef7b0544ec15de0e21cfc8dac",
    "exposure.json": "0a6b7d51fe27008f2fd2b5c80af7544793a9dee4092e517406f8352e6fe956cd",
    "exposure.jsonl": "fde5a413211ee702d809a7c85c76c39d3d53fdfcaecc5f1213acd1c0a0ce7bbd",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_trace_sampler_outputs_match_their_pins(tmp_path, capsys):
    out, jsonl = tmp_path / "trace.json", tmp_path / "trace.jsonl"
    argv = ["trace", "hplajw", "--duration", "5", "--out", str(out), "--jsonl", str(jsonl)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == PINS["trace.json"]
    assert _sha256(jsonl.read_bytes()) == PINS["trace.jsonl"]


def test_exposure_poller_outputs_match_their_pins(tmp_path, capsys):
    jsonl = tmp_path / "exposure.jsonl"
    assert main(["exposure", "hplajw", "--duration", "5", "--json", "--jsonl", str(jsonl)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == PINS["exposure.json"]
    assert _sha256(jsonl.read_bytes()) == PINS["exposure.jsonl"]
