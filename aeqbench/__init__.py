"""End-to-end and per-layer benchmark of the aeq command line.

Run ``python3 aeqbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``aeqbench/README.md``.
"""
