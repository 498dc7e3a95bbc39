"""Each experiment runs once per session, at its default scale (the
scale ``docs/results/experiments.json`` was recorded at; ``csar-repro
report --scale`` is the way to try another)."""

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="session")
def table_of():
    tables = {}

    def run(exp_id):
        if exp_id not in tables:
            exp = get_experiment(exp_id)
            tables[exp_id] = exp.run(scale=exp.default_scale)
        return tables[exp_id]

    return run
