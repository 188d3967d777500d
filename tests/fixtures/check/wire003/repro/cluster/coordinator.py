"""WIRE003 fixture: the same drift in _http_error(), acknowledged."""


def _http_error(status: int, body: dict) -> bool:  # repro: allow[WIRE003]
    retryable = body.get("retryable")
    if isinstance(retryable, bool):
        return retryable
    return status >= 500
