"""End-to-end benchmark for the sharded engine and the serving layer.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see :mod:`perfbench.run`.
"""
