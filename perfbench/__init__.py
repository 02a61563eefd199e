"""Seeded benchmark of the feistel-lab CLI trial loops; run ``perfbench/run.py``."""
