import sys

import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=ci` runs ten times hypothesis's default number
# of examples; the property tests that bind a fast path to its reference
# scale their own budgets with it (see budget.py)
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def one_pair_calls(monkeypatch):
    """The (spec, x, y) of every one-pair ``eval_metric`` call the test makes,
    wherever a quasifix module binds the function."""
    from quasifix.metrics import eval_metric

    calls = []

    def counted(spec, x, y):
        calls.append((spec, x, y))
        return eval_metric(spec, x, y)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "quasifix"
                and getattr(module, "eval_metric", None) is eval_metric):
            monkeypatch.setattr(module, "eval_metric", counted)
    return calls
