"""System-level security analysis for smart-home deployments.

Feed the analyzer a deployment description (devices, networks, installed
automation apps) and a CVE corpus; it compiles the whole system into a
Horn program, evaluates it against an attacker model, and answers
quantitative questions over the resulting AND/OR attack graph: shortest
attack traces, which CVE combinations evidence each condition, single-CVE
blast radius, and minimal patch sets.

The package re-exports nothing. The way in is ``iotgraph.model.parse_config``,
``iotgraph.cvestore.CveStore`` and ``iotgraph.pipeline.analyze``, whose
result ``write_outputs`` and ``render_summary`` in that module render.
"""

__version__ = "0.1.0"
