"""The gate benchmark: four workloads measured end to end and layer by layer.

See ``bench/README.md``; the entry point is ``bench/run.py``.
"""
