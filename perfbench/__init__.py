"""End-to-end and per-layer benchmark of spectralca; run ``perfbench/run.py``."""
