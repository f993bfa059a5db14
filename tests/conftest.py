import pytest

from spectralca import nn

CHUNKINGS = ("whole_batch", "one_sample_per_chunk")


@pytest.fixture
def chunking(request, monkeypatch):
    """The chunking of every chunked loop (convs, BatchNorm, attention) in
    the test: "one_sample_per_chunk", the default, sets nn._CHUNK_BYTES to
    one byte, which gives one item per chunk; "whole_batch" keeps the
    module's budget, under which the small tensors of these tests run in
    one chunk. Parametrize it indirectly over CHUNKINGS to run both."""
    mode = getattr(request, "param", "one_sample_per_chunk")
    if mode == "one_sample_per_chunk":
        monkeypatch.setattr(nn, "_CHUNK_BYTES", 1)


@pytest.fixture
def workers(monkeypatch):
    """A function that sets how many workers run the chunked loops' jobs:
    workers(2) runs a pool of two threads whatever the machine's cores, so
    the pool is exercised on a one-core runner too.
    Each call starts from no pool; the pools it makes are shut down and the
    module's own pool and count come back after the test."""
    pools = []

    def use(count: int) -> None:
        pools.append(nn._pool)
        monkeypatch.setattr(nn, "_WORKERS", count)
        monkeypatch.setattr(nn, "_pool", None)

    yield use
    pools.append(nn._pool)
    for pool in pools[1:]:  # the first is the module's own
        if pool is not None:
            pool.shutdown(wait=False)  # a test that failed may leave a job stuck
