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
