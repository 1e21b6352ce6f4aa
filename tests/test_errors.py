import pickle

import pytest

from crossemb import errors
from crossemb.errors import (
    BodyMotionRejected,
    CrossembError,
    EmptySource,
    ParseError,
)

CUSTOM = [
    ParseError(3, "expected a JSON object"),
    ParseError(None, "must be >= 1", flag="--seeds"),
    BodyMotionRejected(0.2, 0.15),
    EmptySource("robot"),
]
PLAIN = [cls(f"{cls.__name__} message") for cls in vars(errors).values()
         if isinstance(cls, type) and issubclass(cls, CrossembError)
         and cls not in {type(e) for e in CUSTOM}]


def test_every_error_type_is_covered():
    covered = {type(e) for e in CUSTOM + PLAIN}
    assert covered == {cls for cls in vars(errors).values()
                       if isinstance(cls, type) and issubclass(cls, CrossembError)}


@pytest.mark.parametrize("error", CUSTOM + PLAIN, ids=lambda e: type(e).__name__)
def test_error_survives_pickling(error):
    """As an error raised in a worker process reaches the caller."""
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is type(error)
    assert str(again) == str(error)
    assert again.args == error.args
    assert vars(again) == vars(error)
