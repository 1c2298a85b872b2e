"""The package's exception types: each survives pickling, the way an
exception raised in a worker process reaches the caller."""

import inspect
import pickle

import pytest

from wlpower import errors

VIOLATION = {"v": (0, 1), "u": (2,), "choice": 1, "replacement": (2, 1)}

#: One instance per exception type, with the extra field it carries.
CASES = [
    (errors.GraphFormatError("bad graph6 byte", offset=3), "offset", 3),
    (errors.GraphFormatError("empty line"), "offset", None),
    (errors.ConfigurationError("bad spec"), None, None),
    (errors.DomainError("node out of range"), None, None),
    (errors.BudgetError("time limit exceeded", stats={"elapsed_ms": 7}), "stats", {"elapsed_ms": 7}),
    (errors.ClosureError([VIOLATION, {**VIOLATION, "choice": 2}]), "violations",
     [VIOLATION, {**VIOLATION, "choice": 2}]),
    (errors.CertificateError("not a certificate"), None, None),
]


def test_every_exception_type_has_a_case():
    defined = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    }
    assert defined == {type(exc) for exc, _, _ in CASES}


@pytest.mark.parametrize("exc, field, value", CASES, ids=[type(exc).__name__ for exc, _, _ in CASES])
def test_exception_survives_pickling(exc, field, value):
    copied = pickle.loads(pickle.dumps(exc))
    assert type(copied) is type(exc)
    assert str(copied) == str(exc) and copied.args == exc.args
    if field is not None:
        assert getattr(copied, field) == value
