"""The paper's evaluation as tests: one per experiment of
:mod:`benchmarks.paper`, checked at the same bounds as ``python -m
benchmarks.paper``.  The tables go to ``benchmarks/out/paper/``, so a
check run leaves ``results/`` as committed."""

import pytest

from .paper import EXPERIMENTS, OUT, run


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_experiment(exp):
    run(exp, OUT)
