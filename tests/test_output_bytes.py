"""Byte pins on everything one ``iotgraph analyze`` run writes or prints.

``program.pl``, both graph files, ``metrics_report.txt``, the run manifest
without its ``timings`` and the ``render_summary`` text define what "the
same behaviour" means when the pipeline is restructured. Each is pinned by
its SHA-256 for the five bundled fixtures, one synthetic home on the
bundled feed, and two dense homes: a synthetic home on a synthetic feed with
three, and with five, CVEs per catalog product, which fans adjacency and
network-access exploits out per network. At five, goals have hundreds of
minimal CVE combinations. The pins re-dump the manifest through ``json``, so
the manifest's own writer is checked apart: against ``json.dumps(value,
indent=2)`` on drawn values and on each fixture's raw file.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iotgraph import pipeline
from iotgraph.cvestore import CveStore
from iotgraph.logic import parse_atom
from iotgraph.model import parse_config
from iotgraph.pipeline import AnalysisResult, analyze, render_summary, write_outputs
from iotgraph.synth import synthesize

from conftest import FIXTURE_NAMES, FIXTURES, load_fixture_config
from perfbench.feed import synth_feed

SYNTH_DEVICES = 80
SYNTH_SEED = 20260816
# (devices, seed) of the dense home and (CVEs per product, seed) of its feed.
DENSE_HOME = (64, 1)
DENSE_FEED = (3, 1)
DENSE5_FEED = (5, 1)

PINS = {
    "dense": {
        "program.pl": "e2bb38a84066c9b2f524ef93df8d4ac5a00630bf7c2a2a2778f4ad15bf7f5282",
        "attack_graph.json": "b6b229dce3f0fd4da86e4b3cbcca85012fe1ff13c9443eda8afaaf7834044903",
        "attack_graph.dot": "594cbcb278f115b7961d2a29097ad50b96e719fce90e7045f5035b951475091b",
        "metrics_report.txt": "57e40078fc2ce4a74d2e01ce35b7ea752eb0dc58f0878a13959da0b1530c263b",
        "run_manifest.json": "a9724016b74c95bd1b088a715b5f513948af13f134e8fa0f1e2ca723431d0cc7",
        "summary": "23e51450bed2b11e2da328427eb17ec5a5fb0f7fc53e1125a7140f4e74a7becd",
    },
    "dense5": {
        "program.pl": "32a2cca75ae76b2500fbd138d1958d6aad5223ecfd2410f01ab0d37930ecbdda",
        "attack_graph.json": "616bbd49c4780eb292284c8ad82ddf21bd7966f954368822274e688cfc8bf31e",
        "attack_graph.dot": "c83c1a1233ce177820441e9abc39b649997daac2d230904da32c18b24c5054f8",
        "metrics_report.txt": "db5f153e356b2745d6a2519eb8b9d3fed41cf0da22fc9c5896b2e88e57ce771b",
        "run_manifest.json": "b0d9099cc1b6fd3c5a159340f76c9ce12f17f8f489ed90caa918186479eae7df",
        "summary": "a0f092fa8bbfc3a8c941bfcb3081e31c0d2d67359a67598aaa17bfd6673c7b64",
    },
    "fig2": {
        "program.pl": "9cebcb668aab68d07e9fcb88f7a3ebbd2283582111a47e5b787f1e473c2fb438",
        "attack_graph.json": "d83f4e309aab9b96e73a63b8e33b171748953246d75e68162f9ec0a05057c3bc",
        "attack_graph.dot": "b0a19031a0a6f6340433da4070ee780dae892d5ebeda4653629c13174fe1feaf",
        "metrics_report.txt": "22fbe69d9c2e2375ed2ec3a16a08022bf94166890aa552319a9190ad9d0c1457",
        "run_manifest.json": "c2c97c5a101675425eba648a1791ce8a54f41002e1c9d2dbd9b2de68ef5c7f00",
        "summary": "68ffd4c5b13f5f877b3de72824f458232fdb7a7167b19d9a203f71add8cf59b0",
    },
    "hall_light": {
        "program.pl": "d0ef9294cae2a7f0adf97e81e28eaf1883e7df58e73161e2afa61c9638dcb412",
        "attack_graph.json": "eda81525d9c742e81766c96afd4526bbf20fb79f633971cf7f9b9d07eaeda446",
        "attack_graph.dot": "cf4c939f1e88d395e6b14b6f8d17a974e4f4c4383a734d61e833a81bd53d5547",
        "metrics_report.txt": "5ac3421f1f43edb7c287818f454f78f156ef8ffb3c13e27f3d4bff6cffb9762d",
        "run_manifest.json": "5dfdaf48d71d1c21ca4b3c5cdc8745d9ec62950cf866a80c50a169cf271fa988",
        "summary": "a9aa8da55a1d5a7f66724e42efe5d76d5f92830674e1b5b11a192cc76c6cda0a",
    },
    "listing10": {
        "program.pl": "d6a19abeb18d784af3251d93fd1040c198cf5eecc6f07b81a6bf4dde68184d6e",
        "attack_graph.json": "835243a1af06754120f5c4cfe70d75034cd5f2b3b3d3cbed2922bb1afe0da636",
        "attack_graph.dot": "a9cf441e2f02b5519e449987fd43d8be14c197e74e2ea1c13c1f95b13dc55638",
        "metrics_report.txt": "bf9e529dd7320c7f610790a563c1ce51672814b95facec7ff7a38ac2d96c726a",
        "run_manifest.json": "b3a0570fbd02e408dd265f350029a9ef8b9103ca04e7a892551005de387b075a",
        "summary": "b94377c1237a32073a9b0363ce88e8c559ab076f3a69ac7102653fa803c7c25b",
    },
    "synth": {
        "program.pl": "b456f719100d39494eb0d1c4d31e779611043bba2e2f13bd996d89c1a65e8856",
        "attack_graph.json": "372af9e2823fcbfdaef46bf9031aabc47da662c43ad9a14cd2b103c3eeb8e230",
        "attack_graph.dot": "73c2f9e47044f133b66be1c7fdc9b04f6ed4a26b085c9e08a55245cb976d9573",
        "metrics_report.txt": "27f46f59b282ff0418b873424aa6a0ebe5c51cace92ad55217a928aaf994f805",
        "run_manifest.json": "6e8f3bc5092b8d9a4c5daea22d0bc993851a7851fce3f31a5dda176ac970815a",
        "summary": "8032c1ee7504b0a446ac689e49ae4c2254c38b1495f01d718933f370eccfe9e2",
    },
    "system28": {
        "program.pl": "ad753407d77837b6fde665aebfba5dfb9b341468c8cca5d969648597a6348998",
        "attack_graph.json": "6cc5846dbd51753d7c49594ff3c24daba8ac9610b1f635bde69ab78ca2d07f69",
        "attack_graph.dot": "dfc4d810e6a0e89b897e3cf3c45ee6b9c093e91bfdca0b3934d15c626b6d2a1b",
        "metrics_report.txt": "430b1fc1325c79edc67f1f2e041c78d7ae29f6f8814ce6d1547e8ae5842479ba",
        "run_manifest.json": "2ea3c9a5584824b10c308794669375b067a49d8406cd93c0ca15b74669bf0cdc",
        "summary": "c1097f000f68a96185b67d5659d955ee22da91f6e2647c7e71b5e86ce106bd09",
    },
    "system37": {
        "program.pl": "bd6a4ec467b128da1458113c55c0501cd09d4f62b43d30f929004e95b7ad1c65",
        "attack_graph.json": "d9f20a0fdc823d86bd2d71772a26e6cdb10ddbd8ef46b2df7ad4625fb25d0f61",
        "attack_graph.dot": "59c0cb177f70206e61ddc81d39355e9a4c4f0e295f9fe1438459d4e3dff06aba",
        "metrics_report.txt": "0f3b49221ee1afe9ae0987c4dadfdf3d1719acfdc3a293b367ca67ac0a34534d",
        "run_manifest.json": "a962f167eae1bd27d8d3a3bfd5452603f2721aa3b6f4f1903cf5887798c779f4",
        "summary": "45a3f968e2be455e6c9e04e69f4535821fb4bba0ae63ddbb85b2f7f3666578e4",
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
    if name in ("dense", "dense5"):
        return synthesize(*DENSE_HOME)
    if name == "synth":
        return synthesize(SYNTH_DEVICES, SYNTH_SEED)
    return load_fixture_config(name)


def synth_feed_store(tmp_path_factory: pytest.TempPathFactory, feed_args) -> Iterator[CveStore]:
    root = tmp_path_factory.mktemp("densestore")
    feed = root / "feed.json"
    feed.write_text(synth_feed(*feed_args))
    s = CveStore(root / "store.db")
    s.ingest_feed(feed)
    yield s
    s.close()


@pytest.fixture(scope="module")
def dense_store(tmp_path_factory: pytest.TempPathFactory) -> CveStore:
    yield from synth_feed_store(tmp_path_factory, DENSE_FEED)


@pytest.fixture(scope="module")
def dense5_store(tmp_path_factory: pytest.TempPathFactory) -> CveStore:
    yield from synth_feed_store(tmp_path_factory, DENSE5_FEED)


@pytest.mark.parametrize("name", sorted(PINS))
def test_outputs_are_byte_identical(name, request, tmp_path):
    store_fixture = {"dense": "dense_store", "dense5": "dense5_store"}.get(name, "store")
    store = request.getfixturevalue(store_fixture)
    result = analyze(case_config(name), store)
    assert output_digests(result, tmp_path) == PINS[name]


def test_a_repeated_goal_is_analysed_once(store, tmp_path):
    """Listing fig2's goal twice, and again on the command line, changes no byte."""

    doc = json.loads((FIXTURES / "fig2.json").read_text())
    doc["goals"] = doc["goals"] * 2
    goal = parse_atom(doc["goals"][0])
    result = analyze(parse_config(doc, source="fig2"), store, extra_goals=(goal,))
    assert [r.goal for r in result.goal_results] == [goal]
    assert output_digests(result, tmp_path) == PINS["fig2"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(value=json_values)
@example(value={"quote": 'a "b" \\ c', "control": "\x00\x1f\n\t", "ascii": "é ✓ 𝄞"})
@example(value={"empty": {}, "none": [], "nested": [[{}], {"a": [None, True, 0.1]}]})
@example(value=[float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 2**70])
def test_manifest_writer_writes_what_json_dumps_writes(value):
    assert pipeline._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_raw_manifest_is_json_dumps_output(name, store, tmp_path, monkeypatch):
    """The pins above re-dump the manifest, so they never see the bytes written."""

    manifests = []
    writer = pipeline._json_text

    def keep(value, indent="\n"):
        if indent == "\n":  # the writer recurses with deeper indents
            manifests.append(value)
        return writer(value, indent)

    monkeypatch.setattr(pipeline, "_json_text", keep)
    write_outputs(analyze(load_fixture_config(name), store), tmp_path)
    [manifest] = manifests
    assert manifest["timings"]
    raw = (tmp_path / "run_manifest.json").read_text()
    assert raw == json.dumps(manifest, indent=2) + "\n"
