"""Shared pytest wiring.

The acceptance tests record a one-line verdict per criterion; printing
them from a terminal-summary hook keeps the lines visible under normal
output capture.
"""

import pytest

_CRITERIA: dict[int, str] = {}


def record_criterion(num: int, ok: bool, detail: str) -> None:
    _CRITERIA[num] = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        terminalreporter.write_line(_CRITERIA[num])


@pytest.fixture
def force_workers(monkeypatch):
    """``force(count)`` sets the kernel's thread count and gives it a fresh pool."""
    from bsrnnlite import rnn

    before = rnn._POOL

    def drop_own_pool():
        if rnn._POOL is not None and rnn._POOL is not before:
            rnn._POOL.shutdown()

    def force(count):
        drop_own_pool()
        monkeypatch.setattr(rnn, "_WORKERS", count)
        monkeypatch.setattr(rnn, "_POOL", None)

    yield force
    drop_own_pool()


@pytest.fixture
def split_shares(monkeypatch):
    """The ``(lo, hi)`` of every share ``rnn._split`` hands out, in call order."""
    from bsrnnlite import rnn

    shares = []
    real = rnn._share
    monkeypatch.setattr(rnn, "_share", lambda run, lo, hi: (shares.append((lo, hi)),
                                                           real(run, lo, hi)))
    return shares
