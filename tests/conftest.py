import os

import pytest


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children ``os.fork`` makes in the test, none of them left unreaped."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
