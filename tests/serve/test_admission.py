"""Tests for admission control and the service lifecycle."""

import sys
import threading
import time

import pytest

from repro.llm.client import LLMClient
from repro.llm.simulated import SimulatedLLM
from repro.obs import telemetry as tele
from repro.serve import (
    AdmissionError,
    ClarifyService,
    ServeRequest,
    SessionManager,
    Ticket,
)

INTENT = (
    "Write a route-map stanza that permits routes with local-preference 300."
)


class GatedLLM(LLMClient):
    """Delegates to the simulated LLM, but only once ``gate`` is set.

    ``entered`` fires on the first upstream call, letting a test wait
    until a cycle is genuinely running before probing the backlog;
    ``callers`` holds the thread id of every call.
    """

    def __init__(self) -> None:
        self._inner = SimulatedLLM()
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.callers = []

    def complete(self, system: str, prompt: str) -> str:
        self.callers.append(threading.get_ident())
        self.entered.set()
        assert self.gate.wait(timeout=60), "test never opened the gate"
        return self._inner.complete(system, prompt)


class ProbeLLM(LLMClient):
    """Delegates to the simulated LLM and records the most calls that
    were ever in flight at once."""

    def __init__(self) -> None:
        self._inner = SimulatedLLM()
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0

    def complete(self, system: str, prompt: str) -> str:
        with self._lock:
            self._active += 1
            self.peak = max(self.peak, self._active)
        try:
            time.sleep(0.001)  # widen the window for a second caller
            return self._inner.complete(system, prompt)
        finally:
            with self._lock:
                self._active -= 1


def _open_sessions(manager, count):
    for idx in range(count):
        manager.open(f"s{idx}")


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_after(self):
        llm = GatedLLM()
        manager = SessionManager(llm=llm)
        _open_sessions(manager, 3)
        with ClarifyService(manager, workers=1, high_water=2) as service:
            first = service.submit(
                ServeRequest(session="s0", intent=INTENT, target="OUT")
            )
            assert llm.entered.wait(timeout=60)
            second = service.submit(
                ServeRequest(session="s1", intent=INTENT, target="OUT")
            )
            # Backlog is now at the high-water mark: reject.
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(
                    ServeRequest(session="s2", intent=INTENT, target="OUT")
                )
            assert excinfo.value.retry_after_s > 0
            assert excinfo.value.high_water == 2
            assert service.rejected == 1
            llm.gate.set()
            assert first.wait(60).outcome == "applied"
            assert second.wait(60).outcome == "applied"
        # Once drained the backlog is empty again.
        assert service.depth() == 0

    def test_call_maps_rejection_to_outcome(self):
        llm = GatedLLM()
        manager = SessionManager(llm=llm)
        _open_sessions(manager, 2)
        with ClarifyService(manager, workers=1, high_water=1) as service:
            ticket = service.submit(
                ServeRequest(session="s0", intent=INTENT, target="OUT")
            )
            assert llm.entered.wait(timeout=60)
            response = service.call(
                ServeRequest(session="s1", intent=INTENT, target="OUT")
            )
            assert response.outcome == "rejected"
            assert response.retry_after_s > 0
            assert not response.ok
            llm.gate.set()
            assert ticket.wait(60) is not None

    def test_unknown_session_raises_key_error(self):
        manager = SessionManager()
        with ClarifyService(manager, workers=1) as service:
            with pytest.raises(KeyError):
                service.submit(
                    ServeRequest(session="ghost", intent=INTENT, target="OUT")
                )

    def test_submit_after_stop_raises(self):
        manager = SessionManager()
        manager.open("s0")
        service = ClarifyService(manager, workers=1)
        service.start()
        service.stop()
        with pytest.raises(RuntimeError):
            service.submit(
                ServeRequest(session="s0", intent=INTENT, target="OUT")
            )

    def test_stop_drains_pending_work(self):
        manager = SessionManager()
        _open_sessions(manager, 4)
        service = ClarifyService(manager, workers=2)
        service.start()
        tickets = [
            service.submit(
                ServeRequest(session=f"s{i}", intent=INTENT, target="OUT")
            )
            for i in range(4)
        ]
        service.stop()
        for ticket in tickets:
            response = ticket.wait(0)
            assert response is not None and response.outcome == "applied"

    def test_constructor_validation(self):
        manager = SessionManager()
        with pytest.raises(ValueError):
            ClarifyService(manager, workers=0)
        with pytest.raises(ValueError):
            ClarifyService(manager, high_water=0)

    def test_per_session_fifo_under_pool(self):
        """Requests to one session run in submission order even with
        many workers racing."""
        manager = SessionManager()
        manager.open("s0", config_text="")
        with ClarifyService(manager, workers=4) as service:
            tickets = [
                service.submit(
                    ServeRequest(
                        session="s0",
                        intent=(
                            "Write a route-map stanza that denies routes "
                            f"originating from AS {asn}."
                        ),
                        target="OUT",
                    )
                )
                for asn in (11, 22, 33)
            ]
            responses = [t.wait(60) for t in tickets]
        assert [r.seq for r in responses] == [0, 1, 2]
        assert all(r.outcome == "applied" for r in responses)
        # Three stanzas landed; the store saw them in submission order.
        rm = manager.get("s0").session.store.route_map("OUT")
        assert len(rm.stanzas) == 3


class TestRefusedRequestsHoldNothing:
    """A request ``_admit`` refuses takes no slot and no sequence number."""

    @staticmethod
    def _stop_within(service, seconds=30.0):
        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        stopper.join(seconds)
        assert not stopper.is_alive(), "stop() never returned"

    def test_bad_deadlines_take_no_slot(self):
        manager = SessionManager()
        manager.open("s0")
        service = ClarifyService(manager, workers=1, high_water=2).start()
        for deadline in (0, -1):
            with pytest.raises(ValueError):
                service.submit(
                    ServeRequest("s0", INTENT, "OUT", deadline_s=deadline)
                )
        assert service.depth() == 0
        response = service.submit(ServeRequest("s0", INTENT, "OUT")).wait(60)
        assert response is not None
        assert (response.seq, response.outcome) == (0, "applied")
        self._stop_within(service)

    def test_a_bad_trace_id_takes_no_slot_and_no_seq(self):
        # The hub keys on the trace id.  A request refused for its id
        # must hold no seq, or the session's next request would wait
        # forever for its turn.
        manager = SessionManager()
        manager.open("s0")
        hub = tele.install_hub(tele.TelemetryHub())
        try:
            service = ClarifyService(manager, workers=1, high_water=2).start()
            with pytest.raises(TypeError):
                service.submit(ServeRequest("s0", INTENT, "OUT", trace_id=[1]))
            assert service.depth() == 0
            response = service.submit(ServeRequest("s0", INTENT, "OUT")).wait(60)
            assert response is not None
            assert (response.seq, response.outcome) == (0, "applied")
            self._stop_within(service)
        finally:
            tele.uninstall_hub()
            hub.close()


class TestTicket:
    def test_then_runs_on_the_resolving_thread(self):
        ticket = Ticket()
        seen = []
        ticket.then(lambda result: seen.append((result, threading.current_thread())))
        resolver = threading.Thread(target=ticket.resolve, args=("r",))
        resolver.start()
        resolver.join(10)
        assert seen == [("r", resolver)]

    def test_then_after_resolution_runs_at_once(self):
        ticket = Ticket()
        ticket.resolve("r")
        seen = []
        ticket.then(lambda result: seen.append((result, threading.current_thread())))
        assert seen == [("r", threading.current_thread())]

    def test_then_racing_resolve_runs_each_callback_once(self):
        # A callback added while another thread resolves must run exactly
        # once: neither lost between the two, nor run by both.
        tickets = [Ticket() for _ in range(2000)]
        calls = [0] * len(tickets)

        def count(index):
            def callback(result):
                calls[index] += 1

            return callback

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            resolver = threading.Thread(
                target=lambda: [t.resolve(None) for t in tickets]
            )
            resolver.start()
            for index, ticket in enumerate(tickets):
                ticket.then(count(index))
            resolver.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not resolver.is_alive()
        assert calls == [1] * len(tickets)


class TestExecution:
    """Each cycle runs on the thread that needs it, ``workers`` at once."""

    def test_call_runs_the_cycle_on_the_calling_thread(self):
        llm = GatedLLM()
        llm.gate.set()
        manager = SessionManager(llm=llm)
        manager.open("s0")
        with ClarifyService(manager, workers=2) as service:
            response = service.call(
                ServeRequest(session="s0", intent=INTENT, target="OUT")
            )
        assert response.outcome == "applied"
        assert llm.callers
        assert set(llm.callers) == {threading.get_ident()}

    def test_workers_bound_the_cycles_in_flight(self):
        llm = GatedLLM()
        manager = SessionManager(llm=llm)
        _open_sessions(manager, 2)
        with ClarifyService(manager, workers=1) as service:
            first = service.submit(
                ServeRequest(session="s0", intent=INTENT, target="OUT")
            )
            assert llm.entered.wait(timeout=60)
            second = service.submit(
                ServeRequest(session="s1", intent=INTENT, target="OUT")
            )
            time.sleep(0.1)
            # s1's cycle waits for the one permit s0's cycle holds.
            assert len(llm.callers) == 1
            llm.gate.set()
            responses = [first.wait(60), second.wait(60)]
        assert [r.outcome for r in responses] == ["applied", "applied"]
        assert responses[1].queue_wait_s >= 0.1

    def test_one_permit_runs_two_requests_for_one_session(self):
        # The turn comes before the permit: a request holding the only
        # permit while it waits for its turn would deadlock this.
        manager = SessionManager()
        manager.open("s0")
        service = ClarifyService(manager, workers=1).start()
        tickets = [
            service.submit(
                ServeRequest(
                    session="s0",
                    intent=(
                        "Write a route-map stanza that denies routes "
                        f"originating from AS {asn}."
                    ),
                    target="OUT",
                )
            )
            for asn in (11, 22)
        ]
        responses = [ticket.wait(60) for ticket in tickets]
        assert None not in responses, "a request never finished"
        service.stop()
        assert [(r.seq, r.outcome) for r in responses] == [
            (0, "applied"),
            (1, "applied"),
        ]

    def test_start_and_stop_leave_no_thread_behind(self):
        before = set(threading.enumerate())
        manager = SessionManager()
        _open_sessions(manager, 3)
        service = ClarifyService(manager, workers=2)
        service.start()
        assert set(threading.enumerate()) <= before
        tickets = [
            service.submit(
                ServeRequest(session=f"s{i}", intent=INTENT, target="OUT")
            )
            for i in range(3)
        ]
        service.stop()
        assert all(ticket.done for ticket in tickets)
        assert set(threading.enumerate()) <= before

    def test_stress_keeps_the_permit_bound_and_the_backlog_count(self):
        # More permits than cores, 24 threads and a short switch
        # interval: a lost update to the backlog count, a cycle past
        # the permit bound or a session served out of order would show.
        llm = ProbeLLM()
        manager = SessionManager(llm=llm)
        _open_sessions(manager, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ClarifyService(manager, workers=3, high_water=24) as service:
                tickets = [
                    service.submit(
                        ServeRequest(
                            session=f"s{i % 8}",
                            intent=(
                                "Write a route-map stanza that denies routes "
                                f"originating from AS {100 + i}."
                            ),
                            target="OUT",
                        )
                    )
                    for i in range(24)
                ]
                responses = [ticket.wait(60) for ticket in tickets]
        finally:
            sys.setswitchinterval(interval)
        assert None not in responses, "a request never finished"
        assert [r.outcome for r in responses] == ["applied"] * 24
        assert [r.seq for r in responses] == [i // 8 for i in range(24)]
        assert service.depth() == 0
        assert 1 <= llm.peak <= 3
