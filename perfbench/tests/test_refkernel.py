import pytest

from refkernel import ReferenceClock, ReferenceKernel


class SlowMachine:
    """A fake machine whose speed drops by ``factor`` in some phases."""

    def __init__(self, slice_s: float) -> None:
        self.now = 0.0
        self.factor = 1.0
        self.slice_s = slice_s

    def timer(self) -> float:
        return self.now

    def kernel(self) -> float:
        duration = self.slice_s * self.factor
        self.now += duration
        return duration

    def work(self, seconds: float) -> None:
        self.now += seconds * self.factor


def test_normalised_time_cancels_a_steady_slowdown():
    for factor in (1.0, 1.6, 2.5):
        machine = SlowMachine(slice_s=0.002)
        machine.factor = factor
        clock = ReferenceClock(kernel=machine.kernel, nominal_s=0.001, timer=machine.timer)
        for _ in range(10):
            clock.measure(machine.work, 0.02)
        assert clock.wall_s == pytest.approx(0.2 * factor)
        # nominal is half the unslowed slice, so reference time is half the work
        assert clock.ref_s == pytest.approx(0.1)
        assert len(clock.slices) == 11


def test_slowdown_changing_mid_run_uses_the_slices_around_each_section():
    machine = SlowMachine(slice_s=0.001)
    clock = ReferenceClock(kernel=machine.kernel, nominal_s=0.001, timer=machine.timer)
    _, _, first = clock.measure(machine.work, 0.01)
    machine.factor = 2.0
    # slice before at 1x, after at 2x: the section is rescaled by their mean
    _, wall, ref = clock.measure(machine.work, 0.01)
    assert wall == pytest.approx(0.02)
    assert ref == pytest.approx(0.02 / 1.5)
    _, _, steady = clock.measure(machine.work, 0.01)
    assert first == pytest.approx(0.01) and steady == pytest.approx(0.01)


def test_reference_kernel_is_deterministic_work():
    kernel = ReferenceKernel()
    other = ReferenceKernel()
    assert (kernel.loop(), kernel.scan()) == (other.loop(), other.scan())
    assert kernel() > 0
