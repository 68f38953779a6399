"""Verification verdicts shared by every checking module.

Every row of a report is made by one call of verdict(), which runs the
row's decide(): None passes the row and a string fails it, with the string
as witness; an error of one of the declared types fails it with the
error's text as witness, and any other error propagates.  elapsed_ms times
decide() and nothing else, so a row's lookups belong inside it.  A witness
longer than WITNESS_LIMIT is cut.  A check leaves a report's family empty;
cli sets it to the one its verify row declares, or to the probed family."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

WITNESS_LIMIT = 400


@dataclass
class VerificationReport:
    check: str
    status: str
    mode: str  # "exact", "random" or "numeric"
    family: str = ""
    witness: Optional[str] = None
    seed: Optional[int] = None
    samples: Optional[int] = None
    elapsed_ms: float = 0.0

    def to_obj(self) -> dict:
        out = {"check": self.check, "family": self.family,
               "status": self.status, "mode": self.mode}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.mode == "random":
            out["seed"] = self.seed
            out["samples"] = self.samples
        out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


def verdict(check: str, mode: str, decide: Callable[[], Optional[str]],
            *errors: type[Exception], seed: Optional[int] = None,
            samples: Optional[int] = None) -> VerificationReport:
    """The row `check`, decided by calling decide() once, now."""
    start = time.monotonic()
    try:
        witness = decide()
    except errors as exc:
        witness = str(exc)
    elapsed = (time.monotonic() - start) * 1000.0
    if witness is not None and len(witness) > WITNESS_LIMIT:
        witness = witness[:WITNESS_LIMIT - 3] + "..."
    return VerificationReport(
        check=check,
        status=PASS if witness is None else FAIL,
        mode=mode,
        witness=witness,
        seed=seed,
        samples=samples,
        elapsed_ms=elapsed,
    )
