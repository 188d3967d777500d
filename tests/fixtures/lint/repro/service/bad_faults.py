"""DISC007 fixture: ad-hoc failure injection instead of repro.faults.

Every branch below ships test-only control flow that repro.faults would
make deterministic, enumerable and provably inert when disarmed.
"""

import os

TESTING = bool(os.environ.get("SERVICE_TESTING"))  # line 9: env probe
ENABLE_FAULTS = os.getenv("ENABLE_FAULTS") == "1"  # line 10: env probe


def run_job(job):
    if TESTING:  # line 14: ad-hoc flag branch
        raise RuntimeError("simulated crash")
    if ENABLE_FAULTS and job.retries == 0:  # line 16: ad-hoc flag branch
        raise RuntimeError("simulated first-attempt failure")
    chaos = os.environ["CHAOS_MODE"]  # line 18: env probe
    return job.run(chaos)

DEBUG_FAULTS = os.getenv("DEBUG_FAULTS")  # repro: allow[DISC007]
