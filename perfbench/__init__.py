"""The repository's benchmark: four F-IVM workloads, oracle-checked.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
