"""Unit tests for the transport layer (repro.ps.transport).

The TCP framing tests run over a local ``socketpair`` — real sockets, no
listener — so they exercise the exact byte path of the tcp backend
(length prefix, aligned JSON envelope, ``write_encoded`` frames) in
microseconds.
"""

import json
import multiprocessing
import select
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.ps.compression import (
    EncodedShard,
    decode_shard,
    frame_capacity,
    make_codec,
    write_encoded,
)
from repro.ps.transport import (
    ConnectionClosed,
    PipeConnection,
    TcpConnection,
    format_address,
    parse_address,
)


def dense(shard: int, array: np.ndarray) -> EncodedShard:
    flat = np.ascontiguousarray(array).reshape(-1)
    return EncodedShard(shard=shard, size=flat.size, scheme="dense", arrays=(flat,))


def reference_encode(header: dict, shards=()) -> bytearray:
    """The framing of the staging-buffer implementation this transport
    replaced, kept as the wire-format oracle: zero-fill one bytearray, copy
    every payload into it with ``write_encoded``."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    header_block = (len(header_bytes) + 7) & ~7
    regions = [
        frame_capacity(tuple(array.nbytes for array in shard.arrays))
        for shard in shards
    ]
    body_len = 8 + header_block + sum(16 + region for region in regions)
    message = bytearray(8 + body_len)
    struct.pack_into("<Q", message, 0, body_len)
    struct.pack_into("<Q", message, 8, len(header_bytes))
    message[16 : 16 + len(header_bytes)] = header_bytes
    offset = 16 + header_block
    view = np.frombuffer(message, dtype=np.uint8)
    for shard, region in zip(shards, regions):
        struct.pack_into("<QQ", message, offset, shard.shard, region)
        offset += 16
        write_encoded(shard, view[offset : offset + region])
        offset += region
    return message


def shrink_send_buffer(sock: socket.socket) -> None:
    """Smallest SO_SNDBUF the kernel allows: every large send goes short."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)


def tcp_pair():
    """A connected loopback TCP pair of raw sockets (RST needs real TCP)."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        left = socket.create_connection(listener.getsockname())
        right, _ = listener.accept()
    return left, right


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    a, b = TcpConnection(left), TcpConnection(right)
    yield a, b
    a.close()
    b.close()


class TestAddresses:
    def test_round_trip(self):
        assert parse_address(format_address("10.0.0.7", 5555)) == ("10.0.0.7", 5555)

    def test_ephemeral_port_zero(self):
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)

    def test_empty_host_defaults_to_loopback(self):
        assert parse_address(":8000") == ("127.0.0.1", 8000)

    @pytest.mark.parametrize("bad", ["localhost", "host:port", "host:70000", 1234])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)


class TestTcpFraming:
    def test_header_only_round_trip(self, pair):
        a, b = pair
        a.send({"type": "heartbeat", "worker": "worker-3"})
        header, frames = b.recv(timeout=5.0)
        assert header == {"type": "heartbeat", "worker": "worker-3"}
        assert frames == ()

    def test_dense_frames_round_trip(self, pair):
        a, b = pair
        rng = np.random.default_rng(0)
        payloads = {0: rng.standard_normal(37), 1: rng.standard_normal(256)}
        a.send(
            {"type": "push", "base_version": 9},
            tuple(dense(shard, array) for shard, array in payloads.items()),
        )
        header, frames = b.recv(timeout=5.0)
        assert header["base_version"] == 9
        assert [frame.shard for frame in frames] == [0, 1]
        for frame in frames:
            np.testing.assert_array_equal(decode_shard(frame), payloads[frame.shard])

    def test_codec_frames_survive_the_wire(self, pair):
        a, b = pair
        codec = make_codec("topk:0.25")
        gradient = np.linspace(-1.0, 1.0, 64)
        encoded = codec.encode(0, gradient.copy())
        a.send({"type": "push", "codec": "topk:0.25"}, (encoded,))
        _, frames = b.recv(timeout=5.0)
        assert frames[0].scheme == encoded.scheme
        np.testing.assert_array_equal(decode_shard(frames[0]), decode_shard(encoded))

    def test_messages_preserve_order_and_boundaries(self, pair):
        a, b = pair
        for index in range(20):
            a.send({"seq": index}, (dense(index, np.full(index + 1, float(index))),))
        for index in range(20):
            header, frames = b.recv(timeout=5.0)
            assert header["seq"] == index
            assert frames[0].shard == index
            assert frames[0].size == index + 1

    def test_read_ready_hands_back_one_message_per_call_in_order(self, pair):
        # Three messages are in the kernel before the first read_ready: each
        # call returns exactly one (its frames own the receive buffer until
        # the next call), level-triggered select re-fires for the rest.
        a, b = pair
        payloads = [np.full(50 + index, float(index)) for index in range(3)]
        for index, payload in enumerate(payloads):
            a.send({"seq": index}, (dense(index, payload),))
        for index, payload in enumerate(payloads):
            assert select.select([b], [], [], 5.0)[0], "select did not re-fire"
            ((header, frames),) = b.read_ready()
            assert header == {"seq": index}
            np.testing.assert_array_equal(decode_shard(frames[0]), payload)
        assert not select.select([b], [], [], 0.0)[0]
        assert b.read_ready() == []  # spurious wake-up: dry kernel, no block

    def test_read_ready_keeps_partial_message_across_calls(self, pair):
        a, b = pair
        message = a.encode({"type": "push"}, (dense(0, np.arange(3000.0)),))
        a.send_raw(message[:5])  # inside the length prefix
        assert b.read_ready() == []
        a.send_raw(message[5:1000])  # inside the body
        assert b.read_ready() == []
        assert b.bytes_received == 1000  # partial bytes count as received
        a.send_raw(message[1000:])
        ((header, frames),) = b.read_ready()
        np.testing.assert_array_equal(decode_shard(frames[0]), np.arange(3000.0))
        assert b.bytes_received == len(message) == a.bytes_sent

    def test_peer_close_raises_connection_closed(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionClosed):
            b.recv(timeout=5.0)

    def test_eof_mid_frame_is_closed_not_torn(self):
        # A crashed worker's last message may be half-sent: the receiver
        # must raise, never deliver a truncated frame.
        left, right = socket.socketpair()
        a, b = TcpConnection(left), TcpConnection(right)
        message = a.encode({"type": "push"}, (dense(0, np.ones(1000)),))
        left.sendall(message[: len(message) // 2])
        left.close()
        with pytest.raises(ConnectionClosed):
            b.recv(timeout=5.0)
        b.close()

    @pytest.mark.parametrize("cut", [3, 8, 200], ids=["prefix", "boundary", "body"])
    @pytest.mark.parametrize("style", ["recv", "read_ready"])
    def test_eof_anywhere_inside_a_message_is_connection_closed(self, cut, style):
        left, right = socket.socketpair()
        a, b = TcpConnection(left), TcpConnection(right)
        a.send_raw(a.encode({"type": "push"}, (dense(0, np.ones(100)),))[:cut])
        a.close()
        with pytest.raises(ConnectionClosed):
            if style == "recv":
                b.recv(timeout=5.0)
            else:
                while True:  # [] while bytes trickle in, then the EOF
                    assert b.read_ready() == []
        b.close()

    def test_impossible_length_prefix_is_rejected_not_spun_on(self, pair):
        a, b = pair
        a.send_raw(struct.pack("<Q", 0))  # a body always holds its header_len
        with pytest.raises(ConnectionClosed, match="corrupt"):
            b.recv(timeout=5.0)

    @pytest.mark.parametrize("style", ["recv", "read_ready"])
    def test_connection_reset_normalizes_to_connection_closed(self, style):
        # A hard-killed peer is an RST (ECONNRESET), not an orderly EOF.
        left, right = tcp_pair()
        b = TcpConnection(right)
        left.sendall(b"\x00" * 5)
        left.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        left.close()
        with pytest.raises(ConnectionClosed):
            if style == "recv":
                b.recv(timeout=5.0)
            else:
                assert select.select([b], [], [], 5.0)[0]
                while True:
                    b.read_ready()
        b.close()

    def test_recv_timeout_raises(self, pair):
        _, b = pair
        with pytest.raises(TimeoutError):
            b.recv(timeout=0.05)

    def test_byte_counters_match_across_ends(self, pair):
        a, b = pair
        sent = a.send({"type": "push"}, (dense(0, np.arange(16.0)),))
        b.recv(timeout=5.0)
        assert a.bytes_sent == sent == b.bytes_received

    def test_frames_are_eight_byte_aligned(self):
        # Alignment is what makes zero-copy float64 views legal on receive.
        message = TcpConnection._parts(
            {"k": "x" * 13}, (dense(0, np.ones(3)), dense(1, np.ones(5)))
        )
        body = np.frombuffer(b"".join(message), dtype=np.uint8)[8:]
        header, frames = TcpConnection._decode(body)
        for frame in frames:
            assert all(array.nbytes % 8 == 0 or array.dtype == np.float64
                       for array in frame.arrays)
        np.testing.assert_array_equal(decode_shard(frames[1]), np.ones(5))


def golden_cases():
    rng = np.random.default_rng(7)
    gradient = rng.standard_normal(1001)
    return {
        "no-frames": ({"type": "heartbeat", "worker": "worker-3"}, ()),
        "dense": ({"type": "push", "seq": 4}, (dense(0, gradient), dense(1, gradient[:64]))),
        "qint8": ({"type": "push", "codec": "int8"}, (make_codec("int8").encode(0, gradient.copy()),)),
        "sparse": (
            {"type": "push", "codec": "topk:0.01"},
            (make_codec("topk:0.01").encode(2, gradient.copy()),),
        ),
        "fp16-odd-length": (
            {"type": "push", "codec": "fp16"},
            (make_codec("fp16").encode(0, gradient[:13].copy()),),
        ),
        "zero-length": (
            {"k": "é" * 3},
            (
                dense(0, np.zeros(0)),
                EncodedShard(1, 9, "sparse", (np.zeros(0, np.int32), np.zeros(0))),
                dense(2, np.ones(1)),
            ),
        ),
        "ragged-bytes": (
            {"pad": "x" * 5},
            (
                EncodedShard(0, 13, "qint8", (np.arange(13, dtype=np.int8), np.ones(1))),
                EncodedShard(5, 40, "sparse", (np.arange(3, dtype=np.int32), np.ones(3))),
            ),
        ),
        "non-contiguous": ({}, (EncodedShard(0, 5, "dense", (np.arange(10.0)[::2],)),)),
    }


class TestWireFormatIsUnchanged:
    """The gather-send parts are byte-for-byte the staging encoder's output."""

    @pytest.mark.parametrize("case", golden_cases())
    def test_parts_join_to_the_reference_bytes(self, case, pair):
        header, shards = golden_cases()[case]
        golden = bytes(reference_encode(header, shards))
        assert b"".join(TcpConnection._parts(header, shards)) == golden
        a, b = pair
        assert a.encode(header, shards) == golden
        assert a.send(header, shards) == len(golden)
        received_header, frames = b.recv(timeout=5.0)
        assert received_header == header
        assert len(frames) == len(shards)
        for frame, shard in zip(frames, shards):
            assert (frame.shard, frame.size, frame.scheme) == (shard.shard, shard.size, shard.scheme)
            for got, want in zip(frame.arrays, shard.arrays):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_payload_buffers_are_not_copied(self):
        gradient = np.arange(1000.0)
        parts = TcpConnection._parts({"type": "push"}, (dense(0, gradient),))
        assert any(
            isinstance(part, np.ndarray) and np.shares_memory(part, gradient)
            for part in parts
        )

    def test_byte_counters_equal_the_reference_totals(self, pair):
        a, b = pair
        traffic = list(golden_cases().values())
        for header, shards in traffic:
            a.send(header, shards)
            b.recv(timeout=5.0)
        total = sum(len(reference_encode(header, shards)) for header, shards in traffic)
        assert a.bytes_sent == b.bytes_received == total
        assert b.bytes_sent == a.bytes_received == 0


class TestShortWritesAndSenderThreads:
    def test_large_message_survives_short_writes(self):
        # 1.6 MB through the smallest send buffer into a slow raw reader:
        # sendmsg goes short many times, inside headers and inside payloads.
        left, right = socket.socketpair()
        shrink_send_buffer(left)
        a = TcpConnection(left)
        a.settimeout(30.0)
        shards = (dense(0, np.arange(150_001.0)), dense(1, np.arange(50_000.0) * -1.0))
        golden = bytes(reference_encode({"type": "push", "seq": 1}, shards))
        received = bytearray()

        def slow_reader():
            while len(received) < len(golden):
                chunk = right.recv(32 * 1024)
                if not chunk:
                    return
                received.extend(chunk)
                time.sleep(0.0005)

        reader = threading.Thread(target=slow_reader)
        reader.start()
        try:
            assert a.send({"type": "push", "seq": 1}, shards) == len(golden)
        finally:
            reader.join(timeout=30.0)
            a.close()
            right.close()
        assert not reader.is_alive()
        assert bytes(received) == golden

    def test_two_sender_threads_never_interleave_inside_a_message(self):
        # The training loop and the heartbeat thread share the socket; with
        # a tiny send buffer every big message is many short writes, so a
        # missing lock would splice a heartbeat into the middle of a frame.
        left, right = socket.socketpair()
        shrink_send_buffer(left)
        a, b = TcpConnection(left), TcpConnection(right)
        pushes, beats = 12, 150
        errors = []

        def push_loop():
            try:
                for seq in range(pushes):
                    a.send({"type": "push", "seq": seq}, (dense(0, np.full(20_000, float(seq))),))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        def heartbeat_loop():
            try:
                for seq in range(beats):
                    a.send({"type": "heartbeat", "seq": seq})
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=push_loop), threading.Thread(target=heartbeat_loop)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            seen = {"push": [], "heartbeat": []}
            for _ in range(pushes + beats):
                header, frames = b.recv(timeout=30.0)
                seen[header["type"]].append(header["seq"])
                if header["type"] == "push":
                    np.testing.assert_array_equal(
                        decode_shard(frames[0]), np.full(20_000, float(header["seq"]))
                    )
                else:
                    assert frames == ()
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=30.0)
            a.close()
            b.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen == {"push": list(range(pushes)), "heartbeat": list(range(beats))}


class TestFrameOwnership:
    def test_frames_stay_intact_until_the_next_receive(self, pair):
        # Message 2 is already in the kernel while message 1's frames are in
        # use: nothing touches them until recv is called again, and then the
        # same buffer is reused (no per-message allocation).
        a, b = pair
        first, second = np.arange(500.0), np.arange(500.0) + 1000.0
        a.send({"seq": 1}, (dense(0, first),))
        a.send({"seq": 2}, (dense(0, second),))
        _, frames_one = b.recv(timeout=5.0)
        time.sleep(0.05)
        np.testing.assert_array_equal(decode_shard(frames_one[0]), first)
        assert not frames_one[0].arrays[0].flags.writeable
        _, frames_two = b.recv(timeout=5.0)
        np.testing.assert_array_equal(decode_shard(frames_two[0]), second)
        assert np.shares_memory(frames_one[0].arrays[0], frames_two[0].arrays[0])

    def test_buffer_growth_leaves_handed_out_frames_alone(self, pair):
        a, b = pair
        small, large = np.arange(10.0), np.arange(5000.0)
        a.send({}, (dense(0, small),))
        _, frames = b.recv(timeout=5.0)
        a.send({}, (dense(0, large),))
        _, grown = b.recv(timeout=5.0)
        np.testing.assert_array_equal(decode_shard(frames[0]), small)
        np.testing.assert_array_equal(decode_shard(grown[0]), large)


class TestWholeMessageDeadlines:
    def test_recv_timeout_bounds_the_whole_message_not_each_chunk(self, pair):
        # One byte every 50 ms re-armed a per-chunk timeout forever.
        a, b = pair
        message = a.encode({"type": "ok"}, (dense(0, np.ones(64)),))
        stop = threading.Event()

        def dribble():
            while not stop.wait(0.05):
                a.send_raw(message[a.bytes_sent : a.bytes_sent + 1])

        peer = threading.Thread(target=dribble)
        peer.start()
        started = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                b.recv(timeout=0.4)
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            peer.join(timeout=10.0)
        assert not peer.is_alive()
        assert 0.35 <= elapsed < 2.0
        # The partial message survives the timeout; a retry completes it.
        a.send_raw(message[a.bytes_sent :])
        header, frames = b.recv(timeout=5.0)
        assert header == {"type": "ok"}
        np.testing.assert_array_equal(decode_shard(frames[0]), np.ones(64))

    def test_send_timeout_bounds_the_whole_message_not_each_write(self):
        # A reader that keeps taking a little must not keep the send alive.
        left, right = socket.socketpair()
        shrink_send_buffer(left)
        a = TcpConnection(left)
        a.settimeout(0.4)
        stop = threading.Event()

        def dribble():
            while not stop.wait(0.02):
                if not right.recv(4096):
                    return

        peer = threading.Thread(target=dribble)
        peer.start()
        started = time.monotonic()
        try:
            with pytest.raises(ConnectionClosed, match="timed out"):
                a.send({"type": "push"}, (dense(0, np.ones(1_000_000)),))
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            peer.join(timeout=10.0)
            a.close()
            right.close()
        assert not peer.is_alive()
        assert 0.35 <= elapsed < 2.0


class TestPipeConnection:
    def test_round_trip_and_eof(self):
        left, right = multiprocessing.Pipe()
        a, b = PipeConnection(left), PipeConnection(right)
        a.send({"type": "ok", "version": 3}, frames={"w": np.ones(4)})
        header, frames = b.recv()
        assert header == {"type": "ok", "version": 3}
        np.testing.assert_array_equal(frames["w"], np.ones(4))
        a.close()
        with pytest.raises(ConnectionClosed):
            b.recv()
        b.close()
