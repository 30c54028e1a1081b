"""A standard HTTP/1.1 client for the benchmark: keep-alive,
Content-Length bodies, `Connection: close`, and curl's default
`Expect: 100-continue` rule (bodies above 1 MiB announce themselves and
wait up to 1 s for the interim response before sending).

`Conn` is the blocking closed-loop client. `open_loop` drives a fixed
schedule over a few non-blocking connections from one thread, timing
every request from the moment it was due.
"""

import selectors
import socket
import time

EXPECT_OVER = 1 << 20
EXPECT_WAIT_S = 1.0
TIMEOUT_S = 30.0


class HttpError(Exception):
    pass


def encode_request(method, target, body=b"", expect=False):
    lines = ["%s %s HTTP/1.1" % (method, target), "Host: 127.0.0.1", "Content-Length: %d" % len(body)]
    if expect:
        lines.append("Expect: 100-continue")
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


class Parser:
    """Incremental response parser: feed bytes, collect whole responses.
    1xx interim responses are returned like any other, so the caller
    decides what they mean."""

    def __init__(self):
        self.buf = b""

    def feed(self, data):
        self.buf += data

    def next(self):
        """(status, headers, body) of the first whole response, or None."""
        end = self.buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buf[:end].decode("latin-1").split("\r\n")
        parts = head[0].split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError("bad status line %r" % head[0])
        status = int(parts[1])
        headers = {}
        for line in head[1:]:
            k, _, v = line.partition(":")
            headers[k.strip().lower()] = v.strip()
        length = 0 if status < 200 else int(headers.get("content-length", "0"))
        if len(self.buf) < end + 4 + length:
            return None
        body = self.buf[end + 4:end + 4 + length]
        self.buf = self.buf[end + 4 + length:]
        return status, headers, body


class Conn:
    """One keep-alive connection, reopened after `Connection: close`."""

    def __init__(self, port):
        self.port = port
        self.sock = None
        self.parser = Parser()

    def _open(self):
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=TIMEOUT_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.parser = Parser()

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _read_response(self):
        while True:
            r = self.parser.next()
            if r is not None:
                return r
            data = self.sock.recv(1 << 16)
            if not data:
                raise HttpError("connection closed mid-response")
            self.parser.feed(data)

    def request(self, method, target, body=b""):
        """Send one request; returns (status, headers, body, timing) where
        timing holds `latency_s` (first byte sent to last byte received),
        `expect_wait_s` and the response body size `received`."""
        self._open()
        expect = len(body) > EXPECT_OVER
        head = encode_request(method, target, body, expect=expect)
        t0 = time.perf_counter()
        self.sock.sendall(head)
        wait = 0.0
        if expect:
            # curl: wait for 100 Continue (or an early final answer) at most 1 s
            self.sock.settimeout(EXPECT_WAIT_S)
            try:
                data = self.sock.recv(1 << 16)
                if not data:
                    raise HttpError("connection closed before the body")
                self.parser.feed(data)
            except socket.timeout:
                pass
            self.sock.settimeout(TIMEOUT_S)
            wait = time.perf_counter() - t0
            early = self.parser.next() if self.parser.buf else None
            while early is None and self.parser.buf:
                self.parser.feed(self.sock.recv(1 << 16))
                early = self.parser.next()
            if early is not None and early[0] >= 200:
                # refused before the body: the connection is unusable
                self.close()
                return early[0], early[1], early[2], {"latency_s": time.perf_counter() - t0, "expect_wait_s": wait, "received": len(early[2])}
        self.sock.sendall(body)
        status, headers, rbody = self._read_response()
        while status < 200:
            status, headers, rbody = self._read_response()
        latency = time.perf_counter() - t0
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, rbody, {"latency_s": latency, "expect_wait_s": wait, "received": len(rbody)}


def open_loop(port, conns, schedule, start):
    """Run `schedule` open-loop from perf_counter time `start`.

    `schedule` is a list of (due_offset_s, key, pin, method, target,
    body, tag) in due order. A request goes out once it is due, on a
    free connection (connection `pin` only, unless pin is None), and, if
    its key is not None, only after every earlier request with the same
    key has been answered, so the requests of one key are served in
    order. Returns one record per request: the tag, status, response
    body, latency from the due time, lateness (send time minus due
    time), the send and answer times, and the response body size."""
    sel = selectors.DefaultSelector()
    socks = []
    for _ in range(conns):
        s = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.setblocking(False)
        socks.append(s)
    upcoming = list(reversed(schedule))
    waiting = []  # due, not yet sent, in due order
    busy = set()  # keys with a request in flight
    inflight = 0
    state = [None] * conns  # in flight: [item, wire, offset, parser, due, sent_at]
    results = []
    try:
        while upcoming or waiting or inflight:
            now = time.perf_counter()
            while upcoming and start + upcoming[-1][0] <= now:
                waiting.append(upcoming.pop())
            for i in range(conns):
                if state[i] is not None:
                    continue
                item = next((w for w in waiting if w[1] not in busy and w[2] in (None, i)), None)
                if item is None:
                    continue
                waiting.remove(item)
                if item[1] is not None:
                    busy.add(item[1])
                wire = encode_request(item[3], item[4], item[5]) + item[5]
                state[i] = [item, wire, 0, Parser(), start + item[0], now]
                sel.register(socks[i], selectors.EVENT_WRITE, i)
                inflight += 1
            timeout = max(0.0, start + upcoming[-1][0] - now) if upcoming else None
            if not inflight:
                time.sleep(timeout)
                continue
            events = sel.select(TIMEOUT_S if timeout is None else timeout)
            if not events and timeout is None:
                raise HttpError("no answer within %.0f s" % TIMEOUT_S)
            for key, mask in events:
                i = key.data
                st = state[i]
                if mask & selectors.EVENT_WRITE:
                    st[2] += socks[i].send(st[1][st[2]:st[2] + (1 << 18)])
                    if st[2] == len(st[1]):
                        sel.modify(socks[i], selectors.EVENT_READ, i)
                    continue
                data = socks[i].recv(1 << 16)
                if not data:
                    raise HttpError("connection closed mid-response")
                st[3].feed(data)
                r = st[3].next()
                while r is not None and r[0] < 200:
                    r = st[3].next()
                if r is None:
                    continue
                done = time.perf_counter()
                item = st[0]
                results.append({"tag": item[6], "status": r[0], "body": r[2], "latency_s": done - st[4],
                                "late_s": st[5] - st[4], "sent_at": st[5], "done_at": done,
                                "received": len(r[2])})
                sel.unregister(socks[i])
                state[i] = None
                inflight -= 1
                busy.discard(item[1])
                if r[1].get("connection", "").lower() == "close":
                    socks[i].close()
                    socks[i] = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
                    socks[i].setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    socks[i].setblocking(False)
    finally:
        for s in socks:
            s.close()
        sel.close()
    return results
