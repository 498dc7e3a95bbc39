"""The repo's benchmark of record (see ``bench/README.md``).

``python3 bench/run.py`` (or ``PYTHONPATH=src python -m bench.run``) runs
five workloads against the simulator in ``src/repro`` and reports two
kinds of time, always labelled: *host time* (what a person running the
simulator waits for) and *simulated time* (what the modelled CSAR
cluster would take; exact for a fixed seed).
"""
