"""Byte pins on everything one ``iotgraph analyze`` run writes or prints.

``program.pl``, both graph files, ``metrics_report.txt``, the run manifest
without its ``timings`` and the ``render_summary`` text define what "the
same behaviour" means when the pipeline is restructured. Each is pinned by
its SHA-256 for the five bundled fixtures and one synthetic home on the
bundled feed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from iotgraph.pipeline import AnalysisResult, analyze, render_summary, write_outputs
from iotgraph.synth import synthesize

from conftest import load_fixture_config

SYNTH_DEVICES = 80
SYNTH_SEED = 20260816

PINS = {
    "fig2": {
        "program.pl": "d3a66cf519f9b09501dc13b06a13fcbb49c36b114573ab0eae10486b5454e188",
        "attack_graph.json": "d83f4e309aab9b96e73a63b8e33b171748953246d75e68162f9ec0a05057c3bc",
        "attack_graph.dot": "b0a19031a0a6f6340433da4070ee780dae892d5ebeda4653629c13174fe1feaf",
        "metrics_report.txt": "22fbe69d9c2e2375ed2ec3a16a08022bf94166890aa552319a9190ad9d0c1457",
        "run_manifest.json": "57dda0ad0d92d03398822bf6e6775c4f98a948b66f0f3f1d1d9a83e4ae779dd9",
        "summary": "03a5f27ecafdcd7318bdc97af5e3e9d409a917247ec402935875f7d6a2e3d7d9",
    },
    "hall_light": {
        "program.pl": "d3e43215efeca2824105865ff00522541d1e8ed68a12ea471ffd7fafb426d937",
        "attack_graph.json": "eda81525d9c742e81766c96afd4526bbf20fb79f633971cf7f9b9d07eaeda446",
        "attack_graph.dot": "cf4c939f1e88d395e6b14b6f8d17a974e4f4c4383a734d61e833a81bd53d5547",
        "metrics_report.txt": "5ac3421f1f43edb7c287818f454f78f156ef8ffb3c13e27f3d4bff6cffb9762d",
        "run_manifest.json": "3e31ac1c7a1fbcef2bd4a5d769d86190bc9e1a0cf71ed76523a0e138a801ce0b",
        "summary": "4eda6f0a44ae6a6639194949bf3bd133bc5b184e65407993cea2fe89456ef399",
    },
    "listing10": {
        "program.pl": "ed6a00056505f57ff69ecdb6934173af43d2e58c35142097bdc20bc98b5721b8",
        "attack_graph.json": "835243a1af06754120f5c4cfe70d75034cd5f2b3b3d3cbed2922bb1afe0da636",
        "attack_graph.dot": "a9cf441e2f02b5519e449987fd43d8be14c197e74e2ea1c13c1f95b13dc55638",
        "metrics_report.txt": "bf9e529dd7320c7f610790a563c1ce51672814b95facec7ff7a38ac2d96c726a",
        "run_manifest.json": "4b0a3300a83904e05e4f21216f7115e6a4ec840fb9eb52de1a317a83da0d04fc",
        "summary": "eb872e5d534f59d29319565e1f682222a491c6abc4200dc76a3ce6be689ce5d5",
    },
    "synth": {
        "program.pl": "8afa875091e3c1ba1dde081969588d9a06b8d0876a496a0cb1f1837d18fa9791",
        "attack_graph.json": "372af9e2823fcbfdaef46bf9031aabc47da662c43ad9a14cd2b103c3eeb8e230",
        "attack_graph.dot": "73c2f9e47044f133b66be1c7fdc9b04f6ed4a26b085c9e08a55245cb976d9573",
        "metrics_report.txt": "27f46f59b282ff0418b873424aa6a0ebe5c51cace92ad55217a928aaf994f805",
        "run_manifest.json": "37a0779260d2707c201529049027979e57baba27393884807b43eb5c5db4d557",
        "summary": "7f632c4a57b1b60489b0d49a2ac2a7dedbe6715e0a10fe1890709f70b582d844",
    },
    "system28": {
        "program.pl": "2d44e46f0f5f677c7ac6e576d8427d5b0d0831c8e85553562e6e2acb241d5813",
        "attack_graph.json": "6cc5846dbd51753d7c49594ff3c24daba8ac9610b1f635bde69ab78ca2d07f69",
        "attack_graph.dot": "dfc4d810e6a0e89b897e3cf3c45ee6b9c093e91bfdca0b3934d15c626b6d2a1b",
        "metrics_report.txt": "430b1fc1325c79edc67f1f2e041c78d7ae29f6f8814ce6d1547e8ae5842479ba",
        "run_manifest.json": "bebf46b3141fe6d3d56fd9dc1b94411e350f35b8d703411b97ffad4cf01482b9",
        "summary": "df679f413119f857ced3bc69ba4e63a538486e9c2526c8a4c0953d849e599ad4",
    },
    "system37": {
        "program.pl": "a8bd61db6112fdf07e51bb98bae948c72fcfa380253c29d3a3cd1b9840e28cbb",
        "attack_graph.json": "d9f20a0fdc823d86bd2d71772a26e6cdb10ddbd8ef46b2df7ad4625fb25d0f61",
        "attack_graph.dot": "59c0cb177f70206e61ddc81d39355e9a4c4f0e295f9fe1438459d4e3dff06aba",
        "metrics_report.txt": "0f3b49221ee1afe9ae0987c4dadfdf3d1719acfdc3a293b367ca67ac0a34534d",
        "run_manifest.json": "6c2426d0387f8d751dc2ca9148cd49a3f3e1a346ad89359f36d361e795b13b91",
        "summary": "af8dfc4b60c83a61b2bfe4f4071b3b6b63cbc28c154be15184279892a0b8d9ad",
    },
}


def output_digests(result: AnalysisResult, out_dir: Path) -> dict[str, str]:
    """SHA-256 of each output file, the timing-free manifest and the summary."""

    digests = {}
    for path in write_outputs(result, out_dir):
        data = path.read_bytes()
        if path.name == "run_manifest.json":
            manifest = json.loads(data)
            del manifest["timings"]
            data = (json.dumps(manifest, indent=2) + "\n").encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    digests["summary"] = hashlib.sha256(render_summary(result).encode()).hexdigest()
    return digests


def case_config(name: str):
    if name == "synth":
        return synthesize(SYNTH_DEVICES, SYNTH_SEED)
    return load_fixture_config(name)


@pytest.mark.parametrize("name", sorted(PINS))
def test_outputs_are_byte_identical(name, store, tmp_path):
    result = analyze(case_config(name), store)
    assert output_digests(result, tmp_path) == PINS[name]
