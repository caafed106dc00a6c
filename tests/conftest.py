import os
import random

import pytest
from hypothesis import is_hypothesis_test, seed

# Override with TORICSPEC_TEST_SEED to reproduce a different corpus.
SEED = int(os.environ.get("TORICSPEC_TEST_SEED", "20260821"))


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    # the hypothesis tests draw from SEED too, so one seed reproduces a whole run
    for item in items:
        if is_hypothesis_test(getattr(item, "function", None)):
            seed(SEED)(item.function)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)
