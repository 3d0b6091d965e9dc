"""Benchmark of the iotgraph analyzer; ``run.py`` is the entry point."""
