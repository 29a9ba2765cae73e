import pytest

import sepkit.solver


@pytest.fixture(autouse=True)
def _empty_reduction_table():
    """Every test starts with no reduced instance kept, so a test that
    replaces a stage can neither read an entry made by another test nor
    leave one for the next."""
    sepkit.solver._reductions.clear()
