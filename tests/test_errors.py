import inspect

import pytest

from ldrestore import errors
from ldrestore.errors import FormatError, LdrError, TrainingError


def test_format_error_with_and_without_offset():
    e = FormatError("bad width", offset=7)
    assert str(e) == "bad width (byte offset 7)" and e.offset == 7
    assert str(FormatError("bad width", offset=0)) == "bad width (byte offset 0)"
    e = FormatError("bad width")
    assert str(e) == "bad width" and e.offset is None


def test_training_error_keeps_context_and_copies_history():
    history = [1.0, 0.5, float("nan")]
    e = TrainingError("loss is not finite", step=3, lr=1e-3, loss_history=history)
    history.append(9.0)
    assert str(e) == "loss is not finite"
    assert (e.step, e.lr) == (3, 1e-3)
    assert e.loss_history[:2] == [1.0, 0.5] and len(e.loss_history) == 3
    bare = TrainingError("stopped")
    assert (bare.step, bare.lr, bare.loss_history) == (None, None, [])


def test_every_error_subclasses_ldr_error():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__]
    assert {LdrError, FormatError, TrainingError} <= set(classes)
    for cls in classes:
        assert issubclass(cls, LdrError) and issubclass(cls, Exception), cls
        with pytest.raises(LdrError):
            raise cls("x")
