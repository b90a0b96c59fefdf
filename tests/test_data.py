import numpy as np
import pytest

from qitest.data import Dataset
from qitest.errors import ValidationError


def test_valid_flags_accepted():
    data = Dataset([0.0, 1.0], [2.0, 3.0], [1.0, 0.0])
    assert data.event.tolist() == [1, 0]
    assert Dataset([0.0, 1.0], [2.0, 3.0], [True, False]).event.tolist() == [1, 0]


@pytest.mark.parametrize("flags", [[0.5, 1.9], [1, 257], [1, np.nan]])
def test_non_binary_event_flags_rejected(flags):
    # a cast to int8 would turn these into valid-looking 0/1 flags
    with pytest.raises(ValidationError, match="event"):
        Dataset([0.0, 1.0], [2.0, 3.0], flags)


@pytest.mark.parametrize("entry, exit_", [
    ([0.0, 1.0], [2.0, np.inf]),
    ([-np.inf, 1.0], [2.0, 3.0]),
    ([0.0, np.nan], [2.0, 3.0]),
])
def test_non_finite_times_rejected(entry, exit_):
    with pytest.raises(ValidationError, match="finite"):
        Dataset(entry, exit_, [1, 1])


def test_entry_below_exit_enforced():
    with pytest.raises(ValidationError, match="row"):
        Dataset([0.0, 3.0], [2.0, 3.0], [1, 1])
