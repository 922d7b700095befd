import pytest
from hypothesis import settings

from stwcr import parallel

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# draw that meets a rare defect cannot fail a change that did not touch it.
# Runs without the flag draw fresh examples and keep exploring.
settings.register_profile("ci", derandomize=True)


class ThreadPools:
    """Sets the size of the package's thread pools and records each pool made."""

    def __init__(self, monkeypatch):
        self.made = []  # max_workers of each pool, in creation order
        self._monkeypatch = monkeypatch
        real = parallel.ThreadPoolExecutor

        def recording(max_workers):
            self.made.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", recording)

    def use(self, n):
        """Pools get up to ``n`` threads, whatever the CPU count."""
        self._monkeypatch.setattr(parallel, "_thread_limit", n)


@pytest.fixture()
def thread_pools(monkeypatch):
    return ThreadPools(monkeypatch)
