import multiprocessing
from multiprocessing import resource_tracker, shared_memory

import run


def test_stop_children_reaps_the_resource_tracker():
    block = shared_memory.SharedMemory(create=True, size=64)
    block.close()
    block.unlink()
    assert resource_tracker._resource_tracker._pid is not None

    run.stop_children()

    assert resource_tracker._resource_tracker._pid is None
    assert multiprocessing.active_children() == []
