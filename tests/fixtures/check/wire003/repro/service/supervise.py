"""WIRE003 fixture: classify() works out retryability from a local table."""

RETRYABLE = "retryable"
TERMINAL = "terminal"

#: a second copy of contracts.RETRYABLE_BY_CLASS, free to drift from it
_RETRYABLE_BY_CLASS = {
    "OperationCancelledError": False,
    "InjectedFaultError": True,
    "ReproError": False,
}


def classify(exc: BaseException) -> str:
    for klass in type(exc).__mro__:
        verdict = _RETRYABLE_BY_CLASS.get(klass.__name__)
        if verdict is not None:
            return RETRYABLE if verdict else TERMINAL
    return RETRYABLE
