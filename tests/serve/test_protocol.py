"""The JSONL serve protocol, in-process and through the shard router.

Every malformed command gets one typed ``ok: false`` reply and leaves
the server serving; nothing here may hang, so every read from a serve
process, and every thread that runs a serve loop, has a timeout.
"""

import io
import json
import os
import queue
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.serve import shard as shard_module
from repro.serve.service import AdmissionError, ServeRequest, Ticket
from repro.serve.shard import ShardedCluster, ShardProcess

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: How long any one reply may take before a test calls it a hang.
REPLY_TIMEOUT_S = 30.0


def intent(pref: int) -> str:
    """A route-map intent; distinct preferences never overlap."""
    return (
        "Write a route-map stanza that permits routes with "
        f"local-preference {pref}."
    )


def request_line(**fields):
    command = {"op": "request", "session": "s1", "intent": intent(300)}
    command["target"] = "OUT"
    command.update(fields)
    return command


#: (row id, the line to send: a command, or raw JSON text).
MALFORMED = [
    ("array", "[]"),
    ("string", '"x"'),
    ("number", "5"),
    ("op-array", {"op": []}),
    ("op-number", {"op": 5}),
    ("op-missing", {"session": "s1"}),
    ("config-number", {"op": "open", "session": "s2", "config": 5}),
    ("open-session-object", {"op": "open", "session": {}}),
    ("request-session-object", request_line(session={})),
    ("intent-number", request_line(intent=5)),
    ("intent-null", request_line(intent=None)),
    ("target-list", request_line(target=["OUT"])),
    ("deadline-zero", request_line(deadline_s=0)),
    ("deadline-negative", request_line(deadline_s=-1)),
    ("deadline-string", request_line(deadline_s="5")),
    ("deadline-bool", request_line(deadline_s=True)),
    ("seq-fraction", request_line(seq=1.5)),
    ("seq-infinity", request_line(seq=float("inf"))),
    ("request-id-number", request_line(request_id=5)),
    ("trace-id-list", request_line(trace_id=[1])),
    ("kill-shard-7", {"op": "kill-shard", "shard": 7}),
    ("kill-shard-minus-1", {"op": "kill-shard", "shard": -1}),
    ("kill-shard-fraction", {"op": "kill-shard", "shard": 1.5}),
    ("restart-shard-7", {"op": "restart-shard", "shard": 7}),
    ("restart-shard-minus-1", {"op": "restart-shard", "shard": -1}),
    ("restart-shard-fraction", {"op": "restart-shard", "shard": 1.5}),
]


class ServeProcess:
    """A ``clarify serve`` subprocess with bounded reads."""

    def __init__(self, *argv: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        self.replies: "queue.Queue" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            try:
                self.replies.put(json.loads(line))
            except ValueError:
                self.replies.put({"unparsable": line})
        self.replies.put({"eof": True})

    def send(self, line) -> None:
        text = line if isinstance(line, str) else json.dumps(line)
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def recv(self, what: str) -> dict:
        try:
            return self.replies.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            pytest.fail(f"no reply to {what} within {REPLY_TIMEOUT_S}s")

    def call(self, line, what: str) -> dict:
        self.send(line)
        return self.recv(what)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdin.close()
        self.reader.join(timeout=10)
        self.proc.stdout.close()


@pytest.fixture(params=["in-process", "router"])
def server(request, tmp_path):
    if request.param == "in-process":
        # Telemetry on, so every trace id reaches the hub.
        argv = ["--workers", "1", "--event-log", str(tmp_path / "events.jsonl")]
    else:
        argv = ["--shards", "2", "--workers", "1", "--store-dir", str(tmp_path)]
    proc = ServeProcess(*argv)
    yield proc
    proc.close()


class TestMalformedCommands:
    def test_each_row_gets_one_refusal_and_the_server_keeps_serving(
        self, server
    ):
        opened = server.call({"op": "open", "session": "s1"}, "open")
        assert opened["ok"], opened
        for index, (row, line) in enumerate(MALFORMED):
            tag = None if isinstance(line, str) else f"bad-{row}"
            if tag is not None:
                line = dict(line, tag=tag)
            reply = server.call(line, row)
            assert reply.get("ok") is False, (row, reply)
            assert reply.get("tag") == tag, (row, reply)
            assert reply.get("outcome") != "internal-error", (row, reply)
            # The very next reply answers the next well-formed request
            # of the same session: no second reply, no wedge.
            served = server.call(
                request_line(intent=intent(100 + index), tag=f"next-{row}"),
                f"the request after {row}",
            )
            assert served.get("tag") == f"next-{row}", (row, served)
            assert served.get("outcome") == "applied", (row, served)
        stats = server.call({"op": "stats"}, "stats")
        assert stats["ok"], stats
        assert stats.get("depth", 0) == 0, stats
        assert server.call({"op": "quit"}, "quit") == {"ok": True, "op": "quit"}
        assert server.proc.wait(timeout=REPLY_TIMEOUT_S) == 0


def _run_main(argv, lines, timeout=REPLY_TIMEOUT_S):
    """Run ``main(argv)`` over ``lines`` on a thread; (code, replies)."""
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    stdout = io.StringIO()
    outcome = {}

    def run():
        try:
            outcome["code"] = main(argv)
        except Exception as exc:  # noqa: BLE001 - reported below
            outcome["error"] = exc

    with mock.patch.object(sys, "stdin", stdin), mock.patch.object(
        sys, "stdout", stdout
    ):
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout)
    assert not thread.is_alive(), f"serve did not exit on quit: {lines}"
    assert "error" not in outcome, outcome.get("error")
    replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
    return outcome["code"], replies


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)

#: A well-formed command per op, which the strategy then mistypes.
WELL_FORMED = {
    "open": {"op": "open", "session": "s2", "config": ""},
    "request": request_line(),
    "close": {"op": "close", "session": "s2"},
    "stats": {"op": "stats"},
}

#: Well-typed values per field, to reach past the parse as well.
FIELD_VALUES = {
    "session": st.sampled_from(["s1", "s2", "ghost"]),
    "config": st.text(max_size=40),
    "intent": st.text(max_size=60),
    "target": st.sampled_from(["OUT", "EDGE_IN", ""]),
    "deadline_s": st.floats(0.001, 10.0),
    "request_id": st.text(max_size=8),
    "trace_id": st.text(max_size=8),
    "seq": st.integers(-1, 3),
}


@st.composite
def known_op_commands(draw):
    """A known op's command with up to three fields dropped or set to
    an arbitrary JSON value."""
    op = draw(st.sampled_from(["open", "request", "request", "close", "stats"]))
    command = dict(WELL_FORMED[op])
    fields = sorted(FIELD_VALUES) + ["idempotent"]
    for key in draw(st.lists(st.sampled_from(fields), max_size=3, unique=True)):
        if draw(st.booleans()) and key in command:
            del command[key]
        else:
            command[key] = draw(FIELD_VALUES.get(key, st.nothing()) | JSON_VALUES)
    return command


@pytest.fixture(scope="module")
def event_log(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "events.jsonl")


class TestServeLoopProperty:
    @settings(max_examples=100, deadline=None)
    @given(commands=st.lists(known_op_commands(), min_size=1, max_size=3))
    def test_any_known_op_gets_one_reply_and_quit_exits(
        self, event_log, commands
    ):
        lines = [json.dumps({"op": "open", "session": "s1"})]
        lines += [json.dumps(command) for command in commands]
        lines.append(json.dumps({"op": "quit"}))
        code, replies = _run_main(
            ["serve", "--workers", "1", "--event-log", event_log], lines
        )
        assert code == 0
        assert len(replies) == len(lines), replies
        assert replies[-1] == {"ok": True, "op": "quit"}
        assert not [r for r in replies if r.get("outcome") == "internal-error"]
        event(", ".join(sorted({str(r.get("outcome")) for r in replies[1:-1]})))


class LineFeed:
    """A stdin the test writes to while the serve loop reads it."""

    def __init__(self) -> None:
        self._lines: "queue.Queue" = queue.Queue()

    def feed(self, command) -> None:
        self._lines.put(json.dumps(command) + "\n")

    def close(self) -> None:
        self._lines.put(None)

    def __iter__(self):
        return iter(self._lines.get, None)


class RecordingStdout(io.StringIO):
    """A stdout that queues each reply line as it is written."""

    def __init__(self) -> None:
        super().__init__()
        self.replies: "queue.Queue" = queue.Queue()

    def write(self, text: str) -> int:
        if text.strip():
            self.replies.put(json.loads(text))
        return super().write(text)

    def reply(self, what: str) -> dict:
        try:
            return self.replies.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            pytest.fail(f"no reply to {what} within {REPLY_TIMEOUT_S}s")


class StandInCluster:
    """Takes :class:`ShardedCluster`'s place in the router; each
    submitted request's ticket resolves when the test resolves it."""

    built: "queue.Queue" = queue.Queue()

    def __init__(self, **kwargs) -> None:
        self.store_root = "stand-in"
        self.submitted: "queue.Queue" = queue.Queue()
        StandInCluster.built.put(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def submit(self, *request):
        ticket = Ticket()
        self.submitted.put((request, ticket))
        return ticket


class TestRouterPipelining:
    def test_router_answers_one_request_while_another_is_in_flight(
        self, monkeypatch
    ):
        monkeypatch.setattr(shard_module, "ShardedCluster", StandInCluster)
        stdin, stdout = LineFeed(), RecordingStdout()
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(main(["serve", "--shards", "2"])),
            daemon=True,
        )
        thread.start()
        try:
            cluster = StandInCluster.built.get(timeout=REPLY_TIMEOUT_S)
            stdin.feed(
                request_line(
                    session="a",
                    tag="a",
                    deadline_s=5.0,
                    request_id="r-a",
                    trace_id="t-a",
                )
            )
            stdin.feed(request_line(session="b", tag="b"))
            try:
                (sent_a, ticket_a) = cluster.submitted.get(timeout=10)
                (sent_b, ticket_b) = cluster.submitted.get(timeout=10)
            except queue.Empty:
                pytest.fail("the router did not read b while a was in flight")
            # The router forwards each request's own fields.
            assert sent_a == (
                ServeRequest(
                    "a",
                    intent(300),
                    "OUT",
                    deadline_s=5.0,
                    request_id="r-a",
                    trace_id="t-a",
                ),
            )
            assert sent_b == (ServeRequest("b", intent(300), "OUT"),)
            # b resolves first, from this thread, and its reply carries
            # the client's tag instead of the shard's.
            ticket_b.resolve({"ok": True, "op": "request", "tag": "s1-1"})
            assert stdout.reply("b") == {"ok": True, "op": "request", "tag": "b"}
            assert not ticket_a.done
            ticket_a.resolve({"ok": True, "op": "request", "tag": "s0-1"})
            assert stdout.reply("a") == {"ok": True, "op": "request", "tag": "a"}
        finally:
            stdin.feed({"op": "quit"})
            stdin.close()
            thread.join(REPLY_TIMEOUT_S)
        assert not thread.is_alive()
        assert codes == [0]


class TestClusterSubmit:
    """``ShardedCluster.submit`` writes the request with its own fields."""

    @pytest.fixture
    def sent(self, monkeypatch, tmp_path):
        commands = []

        def send(self, command):
            # Opens succeed at once; requests stay in flight.
            commands.append(command)
            ticket = Ticket()
            if command["op"] == "open":
                ticket.resolve({"ok": True})
            return ticket

        monkeypatch.setattr(ShardProcess, "send", send)
        cluster = ShardedCluster(shards=1, store_root=str(tmp_path))
        cluster.open("s1")
        commands.clear()
        return cluster, commands

    def test_forwards_deadline_and_adopts_ids(self, sent):
        cluster, commands = sent
        request = ServeRequest(
            "s1", "x", "OUT", deadline_s=2.5, request_id="r1", trace_id="t1"
        )
        cluster.submit(request)
        cluster.submit(request)
        assert [ServeRequest.from_command(c) for c in commands] == [
            ServeRequest(
                "s1", "x", "OUT", deadline_s=2.5, request_id="r1",
                trace_id="t1", seq=seq,
            )
            for seq in (0, 1)
        ]

    def test_mints_missing_ids(self, sent):
        cluster, commands = sent
        cluster.submit(ServeRequest("s1", "x", "OUT"))
        (command,) = commands
        assert command["deadline_s"] is None
        assert command["request_id"].startswith("req-")
        assert len(command["trace_id"]) == 32

    def test_rejection_carries_the_request_ids(self, sent):
        cluster, _ = sent
        cluster.high_water = 1
        cluster.submit(ServeRequest("s1", "x", "OUT"))
        with pytest.raises(AdmissionError) as exc:
            cluster.submit(ServeRequest("s1", "x", "OUT", request_id="r2"))
        response = exc.value.response()
        assert response.outcome == "rejected"
        assert response.session == "s1"
        assert response.request_id == "r2"
        assert response.retry_after_s > 0


class TestServeRequestCommand:
    @pytest.mark.parametrize(
        "request_",
        [
            ServeRequest("s1", "x", "OUT"),
            ServeRequest("s1", "x", "OUT", 0.5, "r", "t", 7),
        ],
    )
    def test_round_trip(self, request_):
        command = request_.to_command()
        assert command["op"] == "request"
        assert ServeRequest.from_command(json.loads(json.dumps(command))) == (
            request_
        )

    def test_default_deadline_applies_only_when_absent(self):
        command = {"session": "s1", "intent": "x", "target": "OUT"}
        assert ServeRequest.from_command(command, 3.0).deadline_s == 3.0
        command["deadline_s"] = None
        assert ServeRequest.from_command(command, 3.0).deadline_s is None

    @pytest.mark.parametrize(
        "field,value",
        [
            ("session", 5),
            ("intent", None),
            ("target", ["OUT"]),
            ("deadline_s", 0),
            ("deadline_s", float("nan")),
            ("deadline_s", float("inf")),
            ("deadline_s", False),
            ("request_id", 5),
            ("trace_id", {}),
            ("seq", 1.5),
            ("seq", True),
        ],
    )
    def test_mistyped_fields_are_value_errors(self, field, value):
        command = {"session": "s1", "intent": "x", "target": "OUT"}
        command[field] = value
        with pytest.raises(ValueError, match=field):
            ServeRequest.from_command(command)

    def test_missing_field_is_a_key_error(self):
        with pytest.raises(KeyError):
            ServeRequest.from_command({"session": "s1", "intent": "x"})
