"""Graph recording is switched per thread.

A serving thread scores under ``no_grad()`` while a training thread in
the same process (the online loop's fine-tuner) must keep recording
its autograd graph; a process-global switch would silently turn the
trainer's backward pass into a no-op.
"""

import threading

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


def _hold_no_grad(inside: threading.Event, release: threading.Event) -> None:
    with no_grad():
        inside.set()
        release.wait(10.0)


def test_no_grad_in_another_thread_leaves_this_one_recording():
    inside, release = threading.Event(), threading.Event()
    scorer = threading.Thread(target=_hold_no_grad, args=(inside, release))
    scorer.start()
    try:
        assert inside.wait(10.0)
        assert is_grad_enabled()
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    finally:
        release.set()
        scorer.join(10.0)


def test_no_grad_applies_in_its_own_thread_and_new_threads_record():
    seen = {}

    def probe():
        seen["worker"] = is_grad_enabled()

    with no_grad():
        x = Tensor(np.ones(3), requires_grad=True)
        assert (x * 2.0)._parents == ()
        assert not is_grad_enabled()
        worker = threading.Thread(target=probe)
        worker.start()
        worker.join(10.0)
    assert seen["worker"] is True
    assert is_grad_enabled()
