"""``repro serve`` processes and a keep-alive JSON client for them."""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

_LISTENING = re.compile(r"listening on (http://\S+)")
#: seconds a server may take to print its address
START_TIMEOUT = 60.0
#: seconds a client waits for one answer
REQUEST_TIMEOUT = 120.0


class ServerProcess:
    """One ``python -m repro serve ...`` child bound to a free loopback port."""

    def __init__(self, root: Path, *args: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", *args],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self._drain: threading.Thread | None = None
        try:
            self.url = self._await_url()
        except BaseException:
            self.stop()
            raise
        # keep reading, or a chatty server blocks once the pipe buffer fills
        self._drain = threading.Thread(target=self._discard_output, daemon=True)
        self._drain.start()

    def _discard_output(self) -> None:
        assert self.proc.stdout is not None
        while self.proc.stdout.read(65536):
            pass

    def _await_url(self) -> str:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + START_TIMEOUT
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            match = _LISTENING.search(seen.decode("utf-8", "replace"))
            if match:
                return match.group(1)
        raise RuntimeError("repro serve did not start: " + seen.decode("utf-8", "replace")[-500:])

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, wait for the drain, SIGKILL if it hangs; always reaps."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Client:
    """One HTTP/1.1 keep-alive connection speaking JSON."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url)
        self.conn = http.client.HTTPConnection(
            parts.hostname or "127.0.0.1", parts.port or 80, timeout=REQUEST_TIMEOUT
        )
        self.requests = 0

    def call(self, method: str, path: str, body: Any = None) -> tuple[int, bytes]:
        """One request; returns ``(status, raw body)``."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        self.requests += 1
        return response.status, data

    def json(self, method: str, path: str, body: Any = None) -> dict[str, Any]:
        status, data = self.call(method, path, body)
        if not 200 <= status < 300:
            raise RuntimeError(f"{method} {path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()
