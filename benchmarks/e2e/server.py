"""The scheduling service as users run it: a real subprocess, real HTTP.

:class:`ServerProcess` starts ``python -m repro.cli serve --port 0
--shards 1`` from the checkout's ``src``, waits for its ``serving on``
line and its first ``200`` from ``/healthz``, and on :meth:`stop` drains
it with SIGTERM and waits until every process of its group has exited.
:class:`HttpConnection` is a minimal keep-alive HTTP/1.1 client over
asyncio streams (one connection, one request at a time).
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from measure import proc_table, tree_peak_rss_mb

START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class HttpConnection:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader = self._writer = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(self, method: str, path: str, body: bytes = b""):
        """``(status, body bytes)``; raises ``OSError`` or
        ``asyncio.IncompleteReadError`` on a transport failure (the
        connection is then reopened on the next request)."""
        if self._writer is None:
            await self._connect()
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if method == "POST":
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        try:
            self._writer.write(head.encode("latin-1") + b"\r\n" + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            length = 0
            while (line := await self._reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            return status, await self._reader.readexactly(length)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            await self.close()
            raise

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
        self._reader = self._writer = None


class ServerProcess:
    def __init__(self, root: Path, workdir: Path, session_dir: Path | None = None):
        self.root = root
        self.workdir = workdir
        self.session_dir = session_dir
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> float:
        """Spawn the server; returns seconds until ``/healthz`` answered
        200."""
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--shards", "1"]
        if self.session_dir is not None:
            cmd += ["--session-dir", str(self.session_dir)]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        log = open(self.workdir / "server.log", "ab")
        began = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True,
            )
        finally:
            log.close()
        line = self.proc.stdout.readline().decode()
        if "serving on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        deadline = began + START_TIMEOUT
        while asyncio.run(self._healthz()) != 200:
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)
        return time.perf_counter() - began

    async def _healthz(self) -> int | None:
        conn = HttpConnection(self.host, self.port)
        try:
            status, _ = await conn.request("GET", "/healthz")
            return status
        except (OSError, asyncio.IncompleteReadError, ValueError):
            return None
        finally:
            await conn.close()

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the whole process
        group; anything left after the timeout is killed."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        group = proc.pid  # start_new_session: the server leads its group
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(group, signal.SIGKILL)
                proc.wait()
        proc.stdout.close()
        deadline = time.perf_counter() + STOP_TIMEOUT
        killed = False
        while _group_members(group):
            if time.perf_counter() > deadline:
                if killed:
                    raise RuntimeError(f"server process group {group} survived SIGKILL")
                os.killpg(group, signal.SIGKILL)
                killed = True
                deadline = time.perf_counter() + STOP_TIMEOUT
            time.sleep(0.01)


def _group_members(group: int) -> list[int]:
    """Live (non-zombie) processes of process group *group*."""
    return [
        pid for pid, (state, _, pgrp) in proc_table().items()
        if pgrp == group and state != "Z"
    ]
