#!/usr/bin/env python3
"""End-to-end test of the `kairos_cli --serve --listen` telemetry plane.

Usage:
    python3 scripts/telemetry_e2e.py <path-to-kairos_cli>

Phase 1 (TCP listener, generous SLOs):
  * boots the daemon on an ephemeral port and drives the command protocol
    over BOTH transports — the stdin pipe and the socket — asserting that
    every queued request id is echoed on its settle line;
  * scrapes /metrics and validates the document with check_openmetrics;
  * asserts /healthz answers 200 "ok" and that /stats.json, /trace, /logs
    and /series carry the request-scoped records.

Phase 2 (Unix-domain listener, absurdly tight p99 SLO):
  * admits work, waits for the sampler, and asserts the injected breach
    flips /healthz to 503 "failing" — and that `kairos_cli --health` maps
    it to exit code 2.

Exits 0 when every check passes; prints the failing check and exits 1
otherwise. Stdlib only.
"""

import os
import queue
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_openmetrics  # noqa: E402


class Failure(Exception):
    pass


def require(condition, message):
    if not condition:
        raise Failure(message)


class Daemon:
    """One `kairos_cli --serve` process with a line-queued stdout reader."""

    def __init__(self, cli, listen, slo=None):
        command = [cli, "--serve", "--listen", listen]
        if slo:
            command += ["--slo", slo]
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self):
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)  # EOF marker

    def read_line(self, timeout=20.0):
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise Failure("timed out waiting for daemon output")
        require(line is not None, "daemon closed stdout unexpectedly")
        return line

    def expect(self, pattern, timeout=20.0):
        """Reads lines until one matches; returns the match object."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            require(remaining > 0, f"no line matching {pattern!r}")
            match = re.search(pattern, self.read_line(timeout=remaining))
            if match:
                return match

    def send(self, line):
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def quit(self, timeout=30.0):
        try:
            self.send("quit")
        except BrokenPipeError:
            pass
        returncode = self.process.wait(timeout=timeout)
        require(returncode == 0, f"daemon exited with {returncode}")

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def connect(address, timeout=5.0):
    if isinstance(address, tuple):
        return socket.create_connection(address, timeout=timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(address)
    return sock


def http_get(address, target):
    """Raw HTTP-lite GET (works for TCP and Unix addresses alike)."""
    with connect(address) as sock:
        sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode())
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode()
    match = re.match(r"HTTP/\d\.\d (\d{3})", status_line)
    require(match, f"bad status line {status_line!r}")
    return int(match.group(1)), body.decode()


class LineClient:
    def __init__(self, address):
        self.sock = connect(address, timeout=30.0)
        self.buffer = b""

    def send(self, line):
        self.sock.sendall((line + "\n").encode())

    def read_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            require(chunk, "peer closed mid-line")
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode()

    def close(self):
        self.sock.close()


def drive_batch(send, read_line, command, expected):
    """Sends one submit command; asserts the queued/settled id echo."""
    send(command)
    queued = []
    for _ in range(expected):
        line = read_line()
        match = re.match(r"queued req=(\d+) app=", line)
        require(match, f"expected 'queued req=...', got {line!r}")
        queued.append(int(match.group(1)))
    require(len(set(queued)) == expected, f"duplicate request ids: {queued}")
    for expected_id in queued:  # settle lines echo ids in submission order
        line = read_line()
        match = re.match(r"(admitted|rejected) req=(\d+) ", line)
        require(match, f"expected settle line, got {line!r}")
        require(
            int(match.group(2)) == expected_id,
            f"settle id {match.group(2)} != queued id {expected_id}",
        )
    require(read_line() == "done", "missing 'done' terminator")
    return queued


def phase_tcp(cli):
    print("[phase 1] TCP listener, generous SLOs")
    daemon = Daemon(cli, "127.0.0.1:0", slo="p99=100000")
    try:
        match = daemon.expect(r"listening on 127\.0\.0\.1:(\d+)")
        address = ("127.0.0.1", int(match.group(1)))
        daemon.expect(r"^serving ")

        # Command protocol over the stdin pipe.
        ids_pipe = drive_batch(daemon.send, daemon.read_line, "gen 4 7", 4)
        print(f"  pipe protocol ok (request ids {ids_pipe})")

        # Same protocol over the socket; ids continue the same sequence.
        client = LineClient(address)
        ids_socket = drive_batch(client.send, client.read_line, "gen 3 11", 3)
        require(
            not set(ids_pipe) & set(ids_socket),
            "request ids reused across transports",
        )
        client.send("stats")
        stats_line = client.read_line()
        require(stats_line.startswith("stats live="), f"bad {stats_line!r}")
        client.send("quit")
        require(client.read_line() == "bye", "missing 'bye'")
        client.close()
        print(f"  socket protocol ok (request ids {ids_socket})")

        # /metrics: a valid OpenMetrics document with the service counters.
        status, body = http_get(address, "/metrics")
        require(status == 200, f"/metrics status {status}")
        samples, families = check_openmetrics.check(body)
        require(samples > 0, "/metrics served no samples")
        require(
            "kairos_service_admissions_total" in body,
            "admissions counter missing from /metrics",
        )
        print(f"  /metrics ok ({samples} samples, {families} families)")

        # /healthz under generous SLOs: 200 ok.
        status, body = http_get(address, "/healthz")
        require(status == 200, f"/healthz status {status}")
        require('"status":"ok"' in body, f"/healthz not ok: {body}")

        # The request-scoped records: ids show up in trace, logs, stats.
        status, body = http_get(address, "/stats.json")
        require(status == 200 and '"live":' in body, f"/stats.json: {body}")
        status, body = http_get(address, "/trace")
        require(status == 200, f"/trace status {status}")
        require('"traceEvents"' in body, "/trace is not a trace document")
        require('"req"' in body, "/trace spans carry no request ids")
        status, body = http_get(address, "/logs")
        require(status == 200, f"/logs status {status}")
        require('"request_id":' in body, "/logs events carry no request ids")
        status, body = http_get(address, "/series")
        require(status == 200 and '"points":[' in body, f"/series: {body}")
        print("  /healthz /stats.json /trace /logs /series ok")

        daemon.quit()
        print("  clean shutdown ok")
    finally:
        daemon.kill()


def phase_unix_breach(cli):
    print("[phase 2] Unix listener, injected SLO breach")
    path = os.path.join(
        tempfile.mkdtemp(prefix="kairos-e2e-"), "kairos.sock"
    )
    # Any admission takes longer than a tenth of a microsecond: the p99
    # check lands at >= 2x its threshold, which the health model must call
    # "failing" and /healthz must map to 503.
    daemon = Daemon(cli, f"unix:{path}", slo="p99=0.0001")
    try:
        daemon.expect(re.escape(f"listening on unix:{path}"))
        daemon.expect(r"^serving ")
        drive_batch(daemon.send, daemon.read_line, "gen 4 3", 4)

        # Wait out the sampler: the breach shows once a sampled window
        # covers the admissions (250 ms cadence; allow many).
        deadline = time.monotonic() + 20.0
        while True:
            status, body = http_get(path, "/healthz")
            if status == 503 and '"status":"failing"' in body:
                break
            require(
                time.monotonic() < deadline,
                f"/healthz never flipped to failing: {status} {body}",
            )
            time.sleep(0.25)
        require('"breached":true' in body, f"no breached check: {body}")
        require("p99_latency_ms" in body, f"breach names no check: {body}")
        print("  /healthz flipped to 503 failing on injected breach")

        # The CLI probe maps failing to exit code 2.
        probe = subprocess.run(
            [cli, "--health", f"unix:{path}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=30,
        )
        require(
            probe.returncode == 2,
            f"--health exit {probe.returncode}, expected 2: {probe.stdout}",
        )
        print("  kairos_cli --health exits 2 on failing")

        daemon.quit()
    finally:
        daemon.kill()
        if os.path.exists(path):
            os.unlink(path)


def main():
    if len(sys.argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    cli = sys.argv[1]
    try:
        phase_tcp(cli)
        phase_unix_breach(cli)
    except Failure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("telemetry e2e: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
