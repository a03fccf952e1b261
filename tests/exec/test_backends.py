"""The backend contract: bit-identity across implementations, streamed
delivery, failure collection, interrupt passthrough, and resolution."""

import pytest

from repro.exec.backends import (
    BACKENDS,
    ExecBackend,
    ProcessPoolBackend,
    SerialBackend,
    TaskUnit,
    resolve_backend,
)
from repro.exec.mpi import MpiBackend, load_mpi, mpi_available
from repro.exec.retry import NO_RETRY, RetryPolicy, task_seed


def _units(tasks):
    return [TaskUnit(i, t, task_seed(i, t)) for i, t in enumerate(tasks)]


# Module-level so the process pool can pickle them by reference.
def _square(task):
    return task * task


def _fail_on_odd(task):
    if task % 2 == 1:
        raise ValueError(f"odd task {task}")
    return task * task


def _interrupt(task):
    raise KeyboardInterrupt


ALL_BACKENDS = [
    SerialBackend(),
    ProcessPoolBackend(max_workers=2),
    MpiBackend(),
]


@pytest.mark.parametrize(
    "backend", ALL_BACKENDS, ids=lambda b: type(b).__name__
)
class TestContract:
    def test_results_are_bit_identical_to_serial(self, backend):
        tasks = list(range(8))
        streamed = {}
        failures = backend.run(
            _square,
            _units(tasks),
            on_result=lambda i, r, a: streamed.__setitem__(i, r),
        )
        assert failures == []
        assert streamed == {i: i * i for i in tasks}

    def test_failures_are_collected_not_contagious(self, backend):
        tasks = list(range(6))
        streamed = {}
        failures = backend.run(
            _fail_on_odd,
            _units(tasks),
            retry=NO_RETRY,
            on_result=lambda i, r, a: streamed.__setitem__(i, r),
        )
        assert sorted(f.index for f in failures) == [1, 3, 5]
        assert all(isinstance(f.error, ValueError) for f in failures)
        assert streamed == {0: 0, 2: 4, 4: 16}

    def test_failed_attempt_history_is_recorded(self, backend):
        failures = backend.run(_fail_on_odd, _units([1]), retry=NO_RETRY)
        assert len(failures) == 1
        assert len(failures[0].attempts) == 1
        assert "odd task 1" in failures[0].attempts[0].error

    def test_keyboard_interrupt_propagates(self, backend):
        with pytest.raises(KeyboardInterrupt):
            backend.run(_interrupt, _units([0, 1, 2]))

    def test_callback_errors_become_failures_without_retry(self, backend):
        calls = []

        def boomy(index, result, attempts):
            calls.append(index)
            if index == 1:
                raise RuntimeError("callback bug")

        failures = backend.run(
            _square,
            _units([0, 1, 2]),
            retry=RetryPolicy(retry_all_errors=True),
            on_result=boomy,
        )
        assert [f.index for f in failures] == [1]
        assert calls.count(1) == 1  # the callback bug is not retried


class TestSerialOrdering:
    def test_serial_streams_in_input_order(self):
        order = []
        SerialBackend().run(
            _square, _units([3, 1, 2]), on_result=lambda i, r, a: order.append(i)
        )
        assert order == [0, 1, 2]


class TestProcessPoolValidation:
    def test_max_workers_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessPoolBackend(max_workers=0)

    def test_max_respawns_validated(self):
        with pytest.raises(ValueError, match="max_respawns"):
            ProcessPoolBackend(max_respawns=-1)


class _FakeComm:
    """A two-rank communicator driven entirely from one process: rank 1's
    share is precomputed and injected at ``allgather`` time."""

    def __init__(self, rank, size, other_share):
        self._rank = rank
        self._size = size
        self._other = other_share

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._size

    def allgather(self, local):
        shares = [None] * self._size
        shares[self._rank] = local
        for r in range(self._size):
            if r != self._rank:
                shares[r] = self._other
        return shares


class TestMpiBackend:
    def test_emulator_engages_when_mpi4py_absent(self):
        backend = MpiBackend()
        assert backend.emulated is (not mpi_available())
        assert backend.comm.Get_size() >= 1

    def test_load_mpi_surface(self):
        mpi, emulated = load_mpi()
        comm = mpi.COMM_WORLD
        assert comm.Get_rank() < comm.Get_size()
        if emulated:
            assert comm.allgather("x") == ["x"]
            assert comm.bcast("y") == "y"
            assert comm.gather("z") == ["z"]
            assert mpi.Wtime() > 0
            comm.barrier()
            mpi.Finalize()

    def test_multi_rank_merge_returns_full_ordered_results(self):
        """Rank 0 of a (faked) 2-rank world executes only even positions
        locally, yet streams the complete result set in order."""
        from repro.exec.backends import attempt_task

        tasks = list(range(5))
        units = _units(tasks)
        # Precompute what rank 1 would contribute: odd positions.
        rank1_share = []
        for position, unit in enumerate(units):
            if position % 2 == 1:
                ok, payload, attempts = attempt_task(_square, unit, NO_RETRY)
                rank1_share.append((position, ok, payload, attempts))

        executed_locally = []

        def counting_execute(task):
            executed_locally.append(task)
            return _square(task)

        backend = MpiBackend(comm=_FakeComm(0, 2, rank1_share))
        assert backend.emulated is False
        order = []
        failures = backend.run(
            counting_execute,
            units,
            on_result=lambda i, r, a: order.append((i, r)),
        )
        assert failures == []
        assert executed_locally == [0, 2, 4]  # rank 0's share only
        assert order == [(i, i * i) for i in range(5)]

    def test_multi_rank_failures_merge_too(self):
        from repro.exec.backends import attempt_task

        units = _units([0, 1])
        rank1_share = []
        for position, unit in enumerate(units):
            if position % 2 == 1:
                ok, payload, attempts = attempt_task(
                    _fail_on_odd, unit, NO_RETRY
                )
                rank1_share.append((position, ok, payload, attempts))
        backend = MpiBackend(comm=_FakeComm(0, 2, rank1_share))
        failures = backend.run(_fail_on_odd, units, retry=NO_RETRY)
        assert [f.index for f in failures] == [1]
        assert isinstance(failures[0].error, ValueError)


class TestResolveBackend:
    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_none_with_zero_workers_is_serial(self):
        # jobs=None (the default) asks for no worker processes.
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(None, jobs=None), SerialBackend)

    def test_none_with_workers_is_process_pool(self):
        backend = resolve_backend(None, jobs=3, n_pending=10)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 3

    def test_none_all_cores_is_process_pool(self):
        backend = resolve_backend(None, jobs=0, n_pending=10)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers is None

    def test_single_pending_task_stays_serial(self):
        backend = resolve_backend(None, jobs=4, n_pending=1)
        assert isinstance(backend, SerialBackend)

    def test_named_backends(self):
        assert isinstance(resolve_backend("serial", jobs=4), SerialBackend)
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)
        assert isinstance(resolve_backend("mpi"), MpiBackend)

    def test_explicit_name_beats_worker_inference(self):
        # backend="process" with no jobs still builds a pool, one worker
        # per core.
        backend = resolve_backend("process", n_pending=1)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers is None
        assert resolve_backend("process", jobs=0).max_workers is None
        assert resolve_backend("process", jobs=2).max_workers == 2

    def test_jobs_is_keyword_only(self):
        # A positional worker count from the old inverted convention
        # must fail loudly, never flip between serial and all cores.
        with pytest.raises(TypeError):
            resolve_backend(None, 0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("threads")

    def test_backends_tuple_matches_resolution(self):
        for name in BACKENDS:
            assert isinstance(resolve_backend(name, jobs=2), ExecBackend)
