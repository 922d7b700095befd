import pytest

from stwcr import parallel


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
