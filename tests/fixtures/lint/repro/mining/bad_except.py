"""Violating fixture: silent exception handling in mining code.

Expected findings: DISC005 at the bare except and at the silent-pass
handler; the re-raising handler is clean.
"""


def count_safely(miner, members):
    try:
        return miner(members)
    except:
        return {}


def count_quietly(miner, members):
    try:
        return miner(members)
    except ValueError:
        pass
    except KeyError as exc:
        raise RuntimeError("mining failed") from exc


def count_acknowledged(miner, members):
    try:
        return miner(members)
    except ValueError:  # repro: allow[DISC005]
        pass
