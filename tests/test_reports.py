"""The one rule that decides a report row: reports.verdict."""

import pytest

from painleve4d.reports import FAIL, PASS, WITNESS_LIMIT, verdict


def test_none_passes():
    rep = verdict("row", "exact", lambda: None)
    assert (rep.check, rep.status, rep.mode, rep.witness) == ("row", PASS, "exact", None)
    assert rep.elapsed_ms >= 0


def test_string_fails_with_that_witness():
    rep = verdict("row", "random", lambda: "moved x", seed=3, samples=5)
    assert (rep.status, rep.witness, rep.seed, rep.samples) == (FAIL, "moved x", 3, 5)


def test_declared_error_fails_with_its_text():
    def decide():
        raise KeyError("no chart")

    rep = verdict("row", "exact", decide, ValueError, LookupError)
    assert (rep.status, rep.witness) == (FAIL, str(KeyError("no chart")))


def test_undeclared_error_propagates():
    def decide():
        raise KeyError("no chart")

    with pytest.raises(KeyError):
        verdict("row", "exact", decide, ValueError)


@pytest.mark.parametrize("length", [WITNESS_LIMIT + 1, 2 * WITNESS_LIMIT])
def test_long_witness_is_cut(length):
    rep = verdict("row", "exact", lambda: "x" * length)
    assert len(rep.witness) == WITNESS_LIMIT == 400
    assert rep.witness == "x" * (WITNESS_LIMIT - 3) + "..."
    assert verdict("row", "exact", lambda: "x" * WITNESS_LIMIT).witness == "x" * 400
