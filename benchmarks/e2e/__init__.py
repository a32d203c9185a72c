"""End-to-end benchmark of the encrypted-search service and the sharded fleet.

Entry point: ``benchmarks/e2e/run.py``; see ``README.md`` in this directory.
"""
