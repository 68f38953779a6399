"""Verification verdicts shared by every checking module.  A check leaves a
report's family empty; cli sets it to the one its verify row declares, or
to the probed family."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


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


def report(check: str, ok: bool, mode: str,
           witness: Optional[str] = None, seed: Optional[int] = None,
           samples: Optional[int] = None, *, started: float) -> VerificationReport:
    elapsed = (time.monotonic() - started) * 1000.0
    return VerificationReport(
        check=check,
        status=PASS if ok else FAIL,
        mode=mode,
        witness=None if ok else witness,
        seed=seed,
        samples=samples,
        elapsed_ms=elapsed,
    )


WITNESS_LIMIT = 400


def clip_witness(text: str) -> str:
    return text if len(text) <= WITNESS_LIMIT else text[:WITNESS_LIMIT - 3] + "..."
